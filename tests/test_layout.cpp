// BlockLayout factories and ownership invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "layout/block_layout.hpp"

namespace ca3dmm {
namespace {

TEST(Layout, Row1D) {
  auto l = BlockLayout::row_1d(10, 4, 3);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(0), 4 * 4);  // rows 0..3
  EXPECT_EQ(l.local_size(1), 3 * 4);
  EXPECT_EQ(l.local_size(2), 3 * 4);
}

TEST(Layout, Col1D) {
  auto l = BlockLayout::col_1d(4, 10, 3);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(0), 4 * 4);
  EXPECT_EQ(l.rects_of(1)[0].c, (Range{4, 7}));
}

TEST(Layout, Grid2DRowMajor) {
  auto l = BlockLayout::grid_2d(6, 6, 2, 3);
  EXPECT_TRUE(l.covers_exactly());
  // Rank 4 = grid (1, 1): rows 3..5, cols 2..3
  EXPECT_EQ(l.rects_of(4)[0], (Rect{{3, 6}, {2, 4}}));
}

TEST(Layout, Grid2DColMajor) {
  auto l = BlockLayout::grid_2d(6, 6, 2, 3, /*col_major_ranks=*/true);
  EXPECT_TRUE(l.covers_exactly());
  // Rank 3 = (i=1, j=1) in column-major rank order: rows 3..5, cols 2..3
  EXPECT_EQ(l.rects_of(3)[0], (Rect{{3, 6}, {2, 4}}));
}

TEST(Layout, Single) {
  auto l = BlockLayout::single(5, 5, 2, 4);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(2), 25);
  EXPECT_EQ(l.local_size(0), 0);
}

TEST(Layout, MoreRanksThanRows) {
  auto l = BlockLayout::row_1d(2, 3, 5);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(0), 3);
  EXPECT_EQ(l.local_size(2), 0);  // empty block dropped
  EXPECT_TRUE(l.rects_of(4).empty());
}

TEST(Layout, LocalOffsetWithinMultipleRects) {
  BlockLayout l(4, 4, 2);
  l.add_rect(0, {{0, 2}, {0, 4}});   // 8 elements
  l.add_rect(0, {{2, 4}, {0, 2}});   // 4 elements
  l.add_rect(1, {{2, 4}, {2, 4}});
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_offset(0, 0, 1, 3), 7);
  EXPECT_EQ(l.local_offset(0, 1, 2, 0), 8);
  EXPECT_EQ(l.local_offset(0, 1, 3, 1), 11);
}

TEST(Layout, OverlapDetected) {
  BlockLayout l(2, 2, 2);
  l.add_rect(0, {{0, 2}, {0, 2}});
  l.add_rect(1, {{0, 1}, {0, 1}});
  EXPECT_FALSE(l.covers_exactly());
}

TEST(Layout, GapDetected) {
  BlockLayout l(2, 2, 2);
  l.add_rect(0, {{0, 1}, {0, 2}});
  EXPECT_FALSE(l.covers_exactly());
}

TEST(Layout, BlockCyclicCoversExactly) {
  for (auto [rows, cols, pr, pc, rb, cb] :
       {std::tuple<i64, i64, int, int, i64, i64>{16, 16, 2, 2, 4, 4},
        {17, 13, 2, 3, 4, 2},
        {8, 8, 3, 2, 2, 3},
        {5, 5, 2, 2, 8, 8},    // tiles larger than the matrix
        {12, 1, 4, 1, 1, 1}}) {
    const auto l = BlockLayout::block_cyclic(rows, cols, pr, pc, rb, cb);
    EXPECT_TRUE(l.covers_exactly())
        << rows << "x" << cols << " grid " << pr << "x" << pc << " tiles "
        << rb << "x" << cb;
    EXPECT_EQ(l.nranks(), pr * pc);
  }
}

TEST(Layout, BlockCyclicRoundRobinAssignment) {
  // 8x8, 2x2 grid, 2x2 tiles: tile (ti, tj) -> rank (ti%2)*2 + tj%2.
  const auto l = BlockLayout::block_cyclic(8, 8, 2, 2, 2, 2);
  // Rank 0 owns tiles (0,0), (0,2), (2,0), (2,2) -> 4 rects.
  EXPECT_EQ(l.rects_of(0).size(), 4u);
  EXPECT_EQ(l.rects_of(0)[0], (Rect{{0, 2}, {0, 2}}));
  EXPECT_EQ(l.local_size(0), 16);
  // Rank 3 owns the odd-odd tiles.
  EXPECT_EQ(l.rects_of(3)[0], (Rect{{2, 4}, {2, 4}}));
}

TEST(Layout, RectIntersect) {
  Rect a{{0, 4}, {0, 4}}, b{{2, 6}, {3, 8}};
  EXPECT_EQ(intersect(a, b), (Rect{{2, 4}, {3, 4}}));
  Rect c{{4, 6}, {0, 4}};
  EXPECT_TRUE(intersect(a, c).empty());
}

TEST(Layout, CopiesShareStorageAndIndex) {
  const auto a = BlockLayout::grid_2d(8, 8, 2, 2);
  const RectIndex* ia = &a.index();
  const BlockLayout b = a;  // a pointer copy
  EXPECT_EQ(b.rects_of(3).data(), a.rects_of(3).data());
  EXPECT_EQ(&b.index(), ia);
  EXPECT_TRUE(a == b);
}

TEST(Layout, AddRectOnACopyLeavesTheOriginalAndItsIndex) {
  BlockLayout a(8, 8, 3);
  a.add_rect(0, {{0, 4}, {0, 8}});
  a.add_rect(1, {{4, 8}, {0, 4}});
  const RectIndex* ia = &a.index();
  BlockLayout b = a;
  b.add_rect(2, {{4, 8}, {4, 8}});
  // The original keeps its rects and its index.
  EXPECT_TRUE(a.rects_of(2).empty());
  EXPECT_EQ(&a.index(), ia);
  EXPECT_FALSE(a.covers_exactly());
  // The copy has its own storage and a fresh index that sees the new rect.
  EXPECT_TRUE(b.covers_exactly());
  EXPECT_NE(b.rects_of(0).data(), a.rects_of(0).data());
  EXPECT_NE(&b.index(), ia);
  std::vector<int> hits;
  b.index().for_each_overlap({{5, 6}, {3, 6}},
                             [&](int rank, size_t) { hits.push_back(rank); });
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
  hits.clear();
  a.index().for_each_overlap({{5, 6}, {3, 6}},
                             [&](int rank, size_t) { hits.push_back(rank); });
  EXPECT_EQ(hits, (std::vector<int>{1}));
}

TEST(Layout, AddRectAfterIndexBuildDropsTheIndex) {
  BlockLayout l(4, 4, 2);
  l.add_rect(0, {{0, 2}, {0, 4}});
  const RectIndex* before = &l.index();
  l.add_rect(1, {{2, 4}, {0, 4}});
  EXPECT_NE(&l.index(), before);
  int hits = 0;
  l.index().for_each_overlap({{0, 4}, {1, 2}}, [&](int, size_t) { ++hits; });
  EXPECT_EQ(hits, 2);
}

TEST(Layout, IndexReportsMultiBandRectsOnce) {
  // Rank 0's tall rect spans the three bands rank 1's rects cut.
  BlockLayout l(6, 4, 2);
  l.add_rect(0, {{0, 6}, {0, 2}});
  l.add_rect(1, {{0, 2}, {2, 4}});
  l.add_rect(1, {{2, 3}, {2, 4}});
  l.add_rect(1, {{3, 6}, {2, 4}});
  ASSERT_TRUE(l.covers_exactly());
  std::vector<std::pair<int, size_t>> hits;
  l.index().for_each_overlap({{1, 5}, {1, 3}}, [&](int rank, size_t idx) {
    hits.emplace_back(rank, idx);
  });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::pair<int, size_t>>{
                      {0, 0}, {1, 0}, {1, 1}, {1, 2}}));
  hits.clear();
  l.index().for_each_overlap({{2, 3}, {0, 1}}, [&](int rank, size_t idx) {
    hits.emplace_back(rank, idx);
  });
  EXPECT_EQ(hits, (std::vector<std::pair<int, size_t>>{{0, 0}}));
  int none = 0;
  l.index().for_each_overlap({{2, 2}, {0, 4}}, [&](int, size_t) { ++none; });
  EXPECT_EQ(none, 0);  // empty query
}

}  // namespace
}  // namespace ca3dmm
