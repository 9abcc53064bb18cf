#include "layout/block_layout.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

namespace ca3dmm {

BlockLayout BlockLayout::row_1d(i64 rows, i64 cols, int p) {
  BlockLayout l(rows, cols, p);
  for (int r = 0; r < p; ++r) {
    Rect rect{block_range(rows, p, r), Range{0, cols}};
    if (!rect.empty()) l.add_rect(r, rect);
  }
  return l;
}

BlockLayout BlockLayout::col_1d(i64 rows, i64 cols, int p) {
  BlockLayout l(rows, cols, p);
  for (int r = 0; r < p; ++r) {
    Rect rect{Range{0, rows}, block_range(cols, p, r)};
    if (!rect.empty()) l.add_rect(r, rect);
  }
  return l;
}

BlockLayout BlockLayout::grid_2d(i64 rows, i64 cols, int pr, int pc,
                                 bool col_major_ranks) {
  BlockLayout l(rows, cols, pr * pc);
  for (int i = 0; i < pr; ++i)
    for (int j = 0; j < pc; ++j) {
      const int rank = col_major_ranks ? j * pr + i : i * pc + j;
      Rect rect{block_range(rows, pr, i), block_range(cols, pc, j)};
      if (!rect.empty()) l.add_rect(rank, rect);
    }
  return l;
}

BlockLayout BlockLayout::single(i64 rows, i64 cols, int owner, int nranks) {
  BlockLayout l(rows, cols, nranks);
  l.add_rect(owner, Rect{Range{0, rows}, Range{0, cols}});
  return l;
}

BlockLayout BlockLayout::block_cyclic(i64 rows, i64 cols, int pr, int pc,
                                      i64 rb, i64 cb) {
  CA_REQUIRE(pr >= 1 && pc >= 1 && rb >= 1 && cb >= 1,
             "bad block-cyclic parameters");
  BlockLayout l(rows, cols, pr * pc);
  for (i64 r0 = 0; r0 < rows; r0 += rb) {
    const i64 tile_i = r0 / rb;
    const Range rr{r0, std::min(rows, r0 + rb)};
    for (i64 c0 = 0; c0 < cols; c0 += cb) {
      const i64 tile_j = c0 / cb;
      const Range cc{c0, std::min(cols, c0 + cb)};
      const int rank = static_cast<int>(tile_i % pr) * pc +
                       static_cast<int>(tile_j % pc);
      l.add_rect(rank, Rect{rr, cc});
    }
  }
  return l;
}

void BlockLayout::add_rect(int rank, const Rect& rect) {
  CA_ASSERT(rank >= 0 && rank < nranks());
  CA_ASSERT(rect.r.lo >= 0 && rect.r.hi <= rows() && rect.c.lo >= 0 &&
            rect.c.hi <= cols());
  if (s_.use_count() != 1 || s_->index)
    s_ = std::make_shared<Storage>(s_->rows, s_->cols, s_->rects);
  s_->rects[static_cast<size_t>(rank)].push_back(rect);
}

const RectIndex& BlockLayout::index() const {
  std::call_once(s_->index_once, [&] {
    s_->index = std::make_unique<const RectIndex>(s_->rects);
  });
  return *s_->index;
}

RectIndex::RectIndex(const std::vector<std::vector<Rect>>& rects) {
  for (const auto& rs : rects)
    for (const Rect& r : rs)
      if (!r.empty()) {
        cuts_.push_back(r.r.lo);
        cuts_.push_back(r.r.hi);
      }
  std::sort(cuts_.begin(), cuts_.end());
  cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());
  const size_t nbands = cuts_.empty() ? 0 : cuts_.size() - 1;
  const auto band_of = [&](i64 row) {
    return static_cast<size_t>(
        std::lower_bound(cuts_.begin(), cuts_.end(), row) - cuts_.begin());
  };
  // Counting pass, then fill: band t holds every rect spanning its rows.
  band_begin_.assign(nbands + 1, 0);
  for (const auto& rs : rects)
    for (const Rect& r : rs)
      if (!r.empty())
        for (size_t t = band_of(r.r.lo), e = band_of(r.r.hi); t < e; ++t)
          ++band_begin_[t + 1];
  for (size_t t = 0; t < nbands; ++t) band_begin_[t + 1] += band_begin_[t];
  entries_.resize(band_begin_[nbands]);
  std::vector<size_t> fill(band_begin_.begin(), band_begin_.end() - 1);
  for (size_t rank = 0; rank < rects.size(); ++rank)
    for (size_t idx = 0; idx < rects[rank].size(); ++idx) {
      const Rect& r = rects[rank][idx];
      if (r.empty()) continue;
      for (size_t t = band_of(r.r.lo), e = band_of(r.r.hi); t < e; ++t)
        entries_[fill[t]++] = Entry{r, static_cast<int>(rank), idx, 0};
    }
  for (size_t t = 0; t < nbands; ++t) {
    Entry* b = entries_.data() + band_begin_[t];
    Entry* e = entries_.data() + band_begin_[t + 1];
    std::sort(b, e, [](const Entry& x, const Entry& y) {
      return std::tie(x.rect.c.lo, x.rank, x.idx) <
             std::tie(y.rect.c.lo, y.rank, y.idx);
    });
    i64 hi_max = 0;
    for (Entry* it = b; it != e; ++it)
      it->hi_max = hi_max = std::max(hi_max, it->rect.c.hi);
  }
}

i64 BlockLayout::local_size(int rank) const {
  i64 s = 0;
  for (const Rect& r : rects_of(rank)) s += r.size();
  return s;
}

i64 BlockLayout::local_offset(int rank, size_t rect_idx, i64 i, i64 j) const {
  const auto rs = rects_of(rank);
  CA_ASSERT(rect_idx < rs.size());
  i64 off = 0;
  for (size_t t = 0; t < rect_idx; ++t) off += rs[t].size();
  const Rect& r = rs[rect_idx];
  CA_ASSERT(r.r.contains(i) && r.c.contains(j));
  return off + (i - r.r.lo) * r.c.size() + (j - r.c.lo);
}

bool BlockLayout::covers_exactly() const {
  std::vector<int> cnt(static_cast<size_t>(rows() * cols()), 0);
  for (int rank = 0; rank < nranks(); ++rank)
    for (const Rect& r : rects_of(rank))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          cnt[static_cast<size_t>(i * cols() + j)]++;
  for (int v : cnt)
    if (v != 1) return false;
  return true;
}

}  // namespace ca3dmm
