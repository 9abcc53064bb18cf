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
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/partition.hpp"

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

/// Ownership map of a (rows x cols) global matrix over `nranks` ranks.
class BlockLayout {
 public:
  BlockLayout() = default;
  BlockLayout(i64 rows, i64 cols, int nranks)
      : rows_(rows), cols_(cols), rects_(static_cast<size_t>(nranks)) {}

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

  i64 rows() const { return rows_; }
  i64 cols() const { return cols_; }
  int nranks() const { return static_cast<int>(rects_.size()); }

  /// Appends a rectangle to `rank`'s ownership list.
  void add_rect(int rank, const Rect& rect);

  const std::vector<Rect>& rects_of(int rank) const {
    return rects_[static_cast<size_t>(rank)];
  }

  /// Number of elements rank owns (= its local buffer length).
  i64 local_size(int rank) const;

  /// Offset in `rank`'s local buffer of global element (i, j), which must lie
  /// inside the rank's rect with index `rect_idx`.
  i64 local_offset(int rank, size_t rect_idx, i64 i, i64 j) const;

  /// True iff every global element is owned by exactly one rank. O(total
  /// rect area) — meant for tests and debug assertions.
  bool covers_exactly() const;

  friend bool operator==(const BlockLayout&, const BlockLayout&) = default;

 private:
  i64 rows_ = 0, cols_ = 0;
  std::vector<std::vector<Rect>> rects_;  ///< per-rank ownership
};

}  // namespace ca3dmm
