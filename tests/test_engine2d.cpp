// The inner 2-D engines (Cannon / SUMMA) on s x s grids, run through
// ca3dmm_multiply on a forced s x s x 1 grid: one k-task group, one Cannon
// group, operands and C in the plan's native layouts. Checks correct
// products for even and uneven k-parts, aggregation settings, and identical
// results from both engines.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/ca3dmm.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

/// One rank-kb update C = A B distributed over an s x s grid. In the plan's
/// native layouts process (i, j) (rank q = j*s + i) holds the pre-skew
/// blocks A(row i, k-part j), B(k-part i, col j) and computes C(i, j).
struct GridCase {
  int s;
  i64 m, n, kb;     // group-level dimensions
  bool use_summa;
  i64 min_kblk;
};

/// This rank's share of `mat` under `layout`, row-major per rect.
std::vector<double> local_part(const BlockLayout& layout, int rank,
                               const Matrix<double>& mat) {
  std::vector<double> buf;
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j) buf.push_back(mat(i, j));
  return buf;
}

struct GridRun {
  Ca3dmmPlan plan;
  std::vector<std::vector<double>> c;  ///< each rank's native C block
  double vtime = 0;
};

/// C = A B with one engine on the forced s x s x 1 grid.
GridRun run_grid(const Matrix<double>& a, const Matrix<double>& b, int s,
                 bool use_summa, i64 min_kblk) {
  Ca3dmmOptions opt;
  opt.force_grid = ProcGrid{s, s, 1};
  opt.use_summa = use_summa;
  opt.min_kblk = min_kblk;
  GridRun run;
  run.plan = Ca3dmmPlan::make(a.rows(), b.cols(), a.cols(), s * s, opt);
  const Ca3dmmPlan& plan = run.plan;
  run.c.resize(static_cast<size_t>(s * s));
  Cluster cl(s * s, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int q = world.rank();
    const std::vector<double> a_loc = local_part(plan.a_native(), q, a);
    const std::vector<double> b_loc = local_part(plan.b_native(), q, b);
    std::vector<double>& c_loc = run.c[static_cast<size_t>(q)];
    c_loc.assign(static_cast<size_t>(plan.c_native().local_size(q)), 0.0);
    ca3dmm_multiply<double>(world, plan, false, false, plan.a_native(),
                            a_loc.data(), plan.b_native(), b_loc.data(),
                            plan.c_native(), c_loc.data());
  });
  run.vtime = cl.aggregate_stats().vtime;
  return run;
}

class Engine2dCase : public ::testing::TestWithParam<GridCase> {};

TEST_P(Engine2dCase, MatchesReference) {
  const GridCase gc = GetParam();
  const int s = gc.s;

  Matrix<double> a(gc.m, gc.kb), b(gc.kb, gc.n), c_ref(gc.m, gc.n);
  a.fill_random(101);
  b.fill_random(102);
  gemm_ref<double>(false, false, gc.m, gc.n, gc.kb, 1.0, a.data(), b.data(),
                   c_ref.data());

  const GridRun run = run_grid(a, b, s, gc.use_summa, gc.min_kblk);
  for (int q = 0; q < s * s; ++q) {
    const int i = q % s, j = q / s;
    const Rect mine = run.plan.c_rect(q);
    ASSERT_EQ(mine.r, block_range(gc.m, s, i));
    ASSERT_EQ(mine.c, block_range(gc.n, s, j));
    const std::vector<double>& c_blk = run.c[static_cast<size_t>(q)];
    for (i64 r = 0; r < mine.r.size(); ++r)
      for (i64 cc = 0; cc < mine.c.size(); ++cc)
        ASSERT_NEAR(c_blk[static_cast<size_t>(r * mine.c.size() + cc)],
                    c_ref(mine.r.lo + r, mine.c.lo + cc), 1e-11 * gc.kb)
            << "s=" << s << " rank (" << i << "," << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cannon, Engine2dCase,
    ::testing::Values(GridCase{1, 8, 9, 10, false, 192},
                      GridCase{2, 16, 16, 16, false, 192},
                      GridCase{2, 17, 13, 19, false, 192},
                      GridCase{3, 24, 24, 24, false, 192},
                      GridCase{3, 25, 23, 22, false, 192},
                      GridCase{4, 32, 32, 64, false, 192},
                      GridCase{4, 37, 29, 53, false, 192},
                      // aggregation disabled vs forced
                      GridCase{4, 32, 32, 64, false, 0},
                      GridCase{4, 32, 32, 64, false, 1000},
                      // k smaller than s: zero-size k-parts in flight
                      GridCase{4, 16, 16, 3, false, 192},
                      GridCase{3, 12, 12, 2, false, 0}));

INSTANTIATE_TEST_SUITE_P(
    Summa, Engine2dCase,
    ::testing::Values(GridCase{1, 8, 9, 10, true, 0},
                      GridCase{2, 16, 16, 16, true, 0},
                      GridCase{2, 17, 13, 19, true, 0},
                      GridCase{3, 25, 23, 22, true, 0},
                      GridCase{4, 37, 29, 53, true, 0},
                      GridCase{4, 16, 16, 3, true, 0},
                      GridCase{4, 16, 16, 2, true, 0}));

TEST(Engine2d, CannonAndSummaAgreeBitwiseOnEvenBlocks) {
  // With even blocks and the same panel order both engines sum the same
  // k-parts in the same sequence; results agree to roundoff.
  Matrix<double> a(8, 8), b(8, 8);
  a.fill_random(7);
  b.fill_random(8);
  const GridRun cannon = run_grid(a, b, 2, false, 0);
  const GridRun summa = run_grid(a, b, 2, true, 0);
  for (size_t q = 0; q < 4; ++q) {
    ASSERT_EQ(cannon.c[q].size(), 16u);
    ASSERT_EQ(summa.c[q].size(), 16u);
    for (size_t e = 0; e < 16; ++e)
      EXPECT_LT(std::abs(cannon.c[q][e] - summa.c[q][e]), 1e-12);
  }
}

TEST(Engine2d, CannonLatencyAdvantage) {
  // §III-E: on the same grid, the SUMMA engine's communication time is at
  // least Cannon's (broadcasts vs neighbor shifts). Both runs redistribute
  // the same native layouts, so the total virtual time compares the
  // engines.
  Matrix<double> a(64, 64), b(64, 64);
  a.fill_random(1);
  b.fill_random(2);
  const double t_cannon = run_grid(a, b, 4, false, 0).vtime;
  const double t_summa = run_grid(a, b, 4, true, 0).vtime;
  EXPECT_GT(t_summa, t_cannon);
}

}  // namespace
}  // namespace ca3dmm
