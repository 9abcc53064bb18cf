// Distributed matrix layouts.
//
// A BlockLayout assigns every element of a global (rows x cols) index space
// to exactly one rank of a communicator; each rank owns an ordered list of
// disjoint rectangles. A rank's local buffer is the concatenation of its
// rectangles, each packed row-major, in list order.
//
// The library-native CA3DMM distributions (paper Fig. 2) and the user-facing
// distributions (1-D row/column, 2-D grid, single-owner) are all instances,
// which lets one generic redistribution routine (paper Algorithm 1 steps 4
// and 8) convert between any pair.
//
// A BlockLayout is a handle to immutable shared storage: copying one copies a
// pointer, so every rank of a simulated cluster can hold the same plan's
// layouts without rebuilding them. add_rect copies the storage first when it
// is shared (copy on write). Next to the rects the storage keeps a row-band
// interval index (RectIndex), built once on first use, which answers "which
// rects overlap this rectangle" in time proportional to the answer. That
// query is what makes redistribution cost O(rects + peers) per rank instead
// of O(P).
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/partition.hpp"
#include "common/rng.hpp"

namespace ca3dmm {

/// Axis-aligned rectangle of a global index space: rows `r`, columns `c`,
/// both half-open.
struct Rect {
  Range r;
  Range c;

  i64 size() const { return r.size() * c.size(); }
  bool empty() const { return r.empty() || c.empty(); }

  friend bool operator==(const Rect&, const Rect&) = default;
};

inline Rect intersect(const Rect& a, const Rect& b) {
  return Rect{intersect(a.r, b.r), intersect(a.c, b.c)};
}

/// Row-band interval index over a layout's rects. The distinct row bounds of
/// all rects cut the rows into bands; each band lists the rects spanning it,
/// sorted by first column. Immutable once built.
class RectIndex {
 public:
  explicit RectIndex(const std::vector<std::vector<Rect>>& rects);

  /// Calls fn(rank, rect_idx) exactly once for every rect that shares at
  /// least one element with `q`, in band order, then column order.
  template <typename Fn>
  void for_each_overlap(const Rect& q, Fn&& fn) const {
    if (q.empty() || cuts_.size() < 2) return;
    // First band whose rows reach past q.r.lo.
    const auto up = std::upper_bound(cuts_.begin(), cuts_.end(), q.r.lo);
    const size_t t0 =
        up == cuts_.begin() ? 0 : static_cast<size_t>(up - cuts_.begin()) - 1;
    for (size_t t = t0; t + 1 < cuts_.size() && cuts_[t] < q.r.hi; ++t) {
      const Entry* e = entries_.data() + band_begin_[t];
      const Entry* end = entries_.data() + band_begin_[t + 1];
      e = std::partition_point(
          e, end, [&](const Entry& x) { return x.hi_max <= q.c.lo; });
      for (; e != end && e->rect.c.lo < q.c.hi; ++e)
        // A rect spanning several bands is reported in the first band it
        // shares with q only.
        if (e->rect.c.hi > q.c.lo && (t == t0 || e->rect.r.lo == cuts_[t]))
          fn(e->rank, e->idx);
    }
  }

 private:
  struct Entry {
    Rect rect;
    int rank = 0;
    size_t idx = 0;  ///< position in rects_of(rank)
    i64 hi_max = 0;  ///< max rect.c.hi over this band's entries up to here
  };
  std::vector<i64> cuts_;          ///< band t = rows [cuts_[t], cuts_[t+1])
  std::vector<size_t> band_begin_;  ///< band t = entries_[begin[t], begin[t+1])
  std::vector<Entry> entries_;
};

/// Ownership map of a (rows x cols) global matrix over `nranks` ranks.
class BlockLayout {
 public:
  BlockLayout() : BlockLayout(0, 0, 0) {}
  BlockLayout(i64 rows, i64 cols, int nranks)
      : s_(std::make_shared<Storage>(
            rows, cols,
            std::vector<std::vector<Rect>>(static_cast<size_t>(nranks)))) {}

  // ---- factories ----
  /// 1-D row partition: rank r owns the canonical row block r.
  static BlockLayout row_1d(i64 rows, i64 cols, int p);
  /// 1-D column partition.
  static BlockLayout col_1d(i64 rows, i64 cols, int p);
  /// 2-D grid: rank = pr_index * pc + pc_index (row-major rank order) or
  /// pc_index * pr + pr_index (column-major) over a pr x pc grid.
  static BlockLayout grid_2d(i64 rows, i64 cols, int pr, int pc,
                             bool col_major_ranks = false);
  /// Everything on one rank.
  static BlockLayout single(i64 rows, i64 cols, int owner, int nranks);
  /// ScaLAPACK-style 2-D block-cyclic distribution: tiles of rb x cb
  /// elements dealt round-robin onto a pr x pc process grid (row-major rank
  /// order). The paper highlights block-cyclic conversion as the layout
  /// real applications need (§V); COSMA ships a redistribution library for
  /// exactly this, and our generic redistribute() covers it because a rank
  /// may own many rectangles.
  static BlockLayout block_cyclic(i64 rows, i64 cols, int pr, int pc, i64 rb,
                                  i64 cb);
  /// Each rank r < `owners` owns the single rect rect_of(r) (an empty rect
  /// owns nothing) — the shape of every library-native layout.
  template <typename RectOf>
  static BlockLayout one_rect_each(i64 rows, i64 cols, int nranks, int owners,
                                   RectOf&& rect_of) {
    BlockLayout l(rows, cols, nranks);
    for (int r = 0; r < owners; ++r) {
      const Rect rect = rect_of(r);
      if (!rect.empty()) l.add_rect(r, rect);
    }
    return l;
  }

  i64 rows() const { return s_->rows; }
  i64 cols() const { return s_->cols; }
  int nranks() const { return static_cast<int>(s_->rects.size()); }

  /// Appends a rectangle to `rank`'s ownership list. Copies the storage
  /// first if another handle shares it or its index was built.
  void add_rect(int rank, const Rect& rect);

  std::span<const Rect> rects_of(int rank) const {
    return s_->rects[static_cast<size_t>(rank)];
  }

  /// The row-band index of this layout's rects, built on first use (thread
  /// safe; the build never blocks on anything but a concurrent build).
  const RectIndex& index() const;

  /// Number of elements rank owns (= its local buffer length).
  i64 local_size(int rank) const;

  /// Offset in `rank`'s local buffer of global element (i, j), which must lie
  /// inside the rank's rect with index `rect_idx`.
  i64 local_offset(int rank, size_t rect_idx, i64 i, i64 j) const;

  /// True iff every global element is owned by exactly one rank. O(total
  /// rect area) — meant for tests and debug assertions.
  bool covers_exactly() const;

  friend bool operator==(const BlockLayout& a, const BlockLayout& b) {
    return a.s_ == b.s_ ||
           (a.rows() == b.rows() && a.cols() == b.cols() &&
            a.s_->rects == b.s_->rects);
  }

 private:
  struct Storage {
    Storage(i64 r, i64 c, std::vector<std::vector<Rect>> rs)
        : rows(r), cols(c), rects(std::move(rs)) {}
    i64 rows, cols;
    std::vector<std::vector<Rect>> rects;  ///< per-rank ownership
    mutable std::once_flag index_once;
    mutable std::unique_ptr<const RectIndex> index;
  };
  std::shared_ptr<Storage> s_;
};

/// A plan's three library-native layouts: rank r < plan.active() owns
/// plan.{a,b,c}_rect(r). Plans build them once, in make().
struct NativeLayouts {
  BlockLayout a, b, c;

  template <typename Plan>
  static NativeLayouts of(const Plan& p) {
    const auto each = [&](i64 rows, i64 cols, auto rect_of) {
      return BlockLayout::one_rect_each(rows, cols, p.nranks(), p.active(),
                                        rect_of);
    };
    return {each(p.m(), p.k(), [&](int r) { return p.a_rect(r); }),
            each(p.k(), p.n(), [&](int r) { return p.b_rect(r); }),
            each(p.m(), p.n(), [&](int r) { return p.c_rect(r); })};
  }
};

/// Sets `buf` to `rank`'s local buffer under `layout` of the virtual global
/// random matrix `seed` (matrix_entry, the generator tests validate
/// against), writing each element once: no zero pass first.
template <typename T>
void fill_local(const BlockLayout& layout, int rank, std::uint64_t seed,
                std::vector<T>& buf) {
  buf.clear();
  buf.reserve(static_cast<size_t>(layout.local_size(rank)));
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j)
        buf.push_back(matrix_entry<T>(seed, i, j));
}

}  // namespace ca3dmm
