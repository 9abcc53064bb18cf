// End-to-end CA3DMM correctness: the full Algorithm-1 pipeline against a
// serial reference GEMM, across matrix shapes, process counts (including
// primes -> idle ranks), transposes, user layouts, and engine options.
#include <gtest/gtest.h>

#include <string>
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

constexpr std::uint64_t kSeedA = 11, kSeedB = 22;

/// Serial reference: C = op(A) op(B) with the same virtual matrices.
Matrix<double> reference_product(i64 m, i64 n, i64 k, bool ta, bool tb) {
  Matrix<double> a(ta ? k : m, ta ? m : k), b(tb ? n : k, tb ? k : n);
  a.fill_random(kSeedA);
  b.fill_random(kSeedB);
  Matrix<double> c(m, n);
  gemm_ref<double>(ta, tb, m, n, k, 1.0, a.data(), b.data(), c.data());
  return c;
}

enum class UserLayout { kCol1D, kRow1D, kGrid2D };

BlockLayout make_user_layout(UserLayout kind, i64 rows, i64 cols, int P) {
  switch (kind) {
    case UserLayout::kCol1D: return BlockLayout::col_1d(rows, cols, P);
    case UserLayout::kRow1D: return BlockLayout::row_1d(rows, cols, P);
    case UserLayout::kGrid2D: {
      int pr = 1;
      for (int d = 1; d * d <= P; ++d)
        if (P % d == 0) pr = d;
      return BlockLayout::grid_2d(rows, cols, pr, P / pr);
    }
  }
  CA_ASSERT(false);
  return BlockLayout();
}

struct Cfg {
  i64 m, n, k;
  int P;
  bool ta = false, tb = false;
  UserLayout layout = UserLayout::kCol1D;
  Ca3dmmOptions opt{};
};

/// Runs `cfg`, checks C against the serial reference and returns every
/// rank's local C.
std::vector<std::vector<double>> run_case(const Cfg& cfg) {
  const Matrix<double> c_ref =
      reference_product(cfg.m, cfg.n, cfg.k, cfg.ta, cfg.tb);
  const BlockLayout a_layout = make_user_layout(
      cfg.layout, cfg.ta ? cfg.k : cfg.m, cfg.ta ? cfg.m : cfg.k, cfg.P);
  const BlockLayout b_layout = make_user_layout(
      cfg.layout, cfg.tb ? cfg.n : cfg.k, cfg.tb ? cfg.k : cfg.n, cfg.P);
  const BlockLayout c_layout =
      make_user_layout(cfg.layout, cfg.m, cfg.n, cfg.P);
  const Ca3dmmPlan plan =
      Ca3dmmPlan::make(cfg.m, cfg.n, cfg.k, cfg.P, cfg.opt);

  Cluster cl(cfg.P, Machine::unit_test());
  std::vector<std::vector<double>> c_all(static_cast<size_t>(cfg.P));
  cl.run([&](Comm& world) {
    std::vector<double> a, b;
    fill_local(a_layout, world.rank(), kSeedA, a);
    fill_local(b_layout, world.rank(), kSeedB, b);
    std::vector<double>& c = c_all[static_cast<size_t>(world.rank())];
    c.assign(static_cast<size_t>(c_layout.local_size(world.rank())), -1.0);
    ca3dmm_multiply<double>(world, plan, cfg.ta, cfg.tb, a_layout, a.data(),
                            b_layout, b.data(), c_layout, c.data());
    // Validate my slice of C against the reference.
    i64 pos = 0;
    for (const Rect& r : c_layout.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j) {
          const double got = c[static_cast<size_t>(pos++)];
          ASSERT_NEAR(got, c_ref(i, j), 1e-11 * (cfg.k + 1))
              << "rank " << world.rank() << " C(" << i << "," << j << ")"
              << " grid " << plan.grid().pm << "x" << plan.grid().pn << "x"
              << plan.grid().pk;
        }
  });
  return c_all;
}

TEST(Ca3dmm, PaperExample1Shape) { run_case({32, 64, 16, 8}); }
TEST(Ca3dmm, PaperExample2Shape) { run_case({32, 32, 64, 16}); }
TEST(Ca3dmm, PaperExample3IdleRank) { run_case({32, 32, 64, 17}); }

TEST(Ca3dmm, SingleProcess) { run_case({20, 18, 25, 1}); }

TEST(Ca3dmm, SquareShapes) {
  run_case({33, 33, 33, 4});
  run_case({48, 48, 48, 12});
}

TEST(Ca3dmm, LargeKShape) { run_case({12, 12, 400, 8}); }
TEST(Ca3dmm, LargeMShape) { run_case({400, 12, 12, 8}); }
TEST(Ca3dmm, FlatShape) { run_case({80, 80, 9, 8}); }

TEST(Ca3dmm, PrimeProcessCounts) {
  run_case({40, 40, 40, 5});
  run_case({40, 40, 40, 7});
  run_case({60, 50, 40, 11});
  run_case({36, 36, 100, 13});
}

TEST(Ca3dmm, UnevenBlockSizes) {
  // Dimensions that do not divide the grid: ceil/floor blocks everywhere.
  run_case({37, 29, 53, 8});
  run_case({19, 23, 101, 12});
  run_case({23, 40, 41, 9});
}

TEST(Ca3dmm, Transposes) {
  run_case({30, 40, 24, 8, true, false});
  run_case({30, 40, 24, 8, false, true});
  run_case({30, 40, 24, 8, true, true});
  run_case({24, 20, 150, 6, true, true});
}

TEST(Ca3dmm, UserLayouts) {
  run_case({40, 36, 32, 8, false, false, UserLayout::kRow1D});
  run_case({40, 36, 32, 8, false, false, UserLayout::kGrid2D});
  run_case({40, 36, 32, 7, true, false, UserLayout::kGrid2D});
}

TEST(Ca3dmm, DegenerateRank1Update) { run_case({24, 24, 1, 6}); }
TEST(Ca3dmm, DegenerateMatVec) { run_case({64, 1, 64, 8}); }
TEST(Ca3dmm, DegenerateVecMat) { run_case({1, 64, 64, 8}); }
TEST(Ca3dmm, DegenerateInnerProduct) { run_case({1, 1, 500, 8}); }
TEST(Ca3dmm, DegenerateOuterProduct) { run_case({32, 48, 1, 8}); }
TEST(Ca3dmm, TinyEverything) { run_case({2, 2, 2, 16}); }

TEST(Ca3dmm, MoreRanksThanWork) { run_case({3, 3, 3, 24}); }

TEST(Ca3dmm, SummaInnerEngine) {
  Cfg cfg{32, 32, 64, 16};
  cfg.opt.use_summa = true;
  run_case(cfg);
  Cfg cfg2{37, 29, 53, 8};
  cfg2.opt.use_summa = true;
  run_case(cfg2);
}

TEST(Ca3dmm, SummaOnReplicatedGrid) {
  // SUMMA inner engine combined with c > 1 replication.
  Cfg cfg{45, 30, 60, 8};
  cfg.opt.use_summa = true;
  cfg.opt.force_grid = ProcGrid{4, 2, 1};
  run_case(cfg);
}

TEST(Ca3dmm, MultiShiftAggregation) {
  // Thin k-parts: aggregation path (min_kblk large vs disabled).
  Cfg with{24, 24, 64, 16};
  with.opt.min_kblk = 64;  // aggregate everything
  run_case(with);
  Cfg without{24, 24, 64, 16};
  without.opt.min_kblk = 0;  // one GEMM per shift
  run_case(without);
}

TEST(Ca3dmm, MultiShiftWindowsSameCWithAbft) {
  // Uneven k-parts and a small min_kblk: windows flush mid-ring, and
  // neighbouring ranks flush at different steps. Plain runs receive panels
  // in place, ABFT stages each through a shift buffer; C must not move.
  std::vector<std::vector<double>> c[2];
  for (const bool abft : {false, true}) {
    Cfg cfg{45, 62, 70, 36, false, false, UserLayout::kGrid2D};
    cfg.opt.force_grid = ProcGrid{3, 6, 2};  // s=3, c=2, k-parts 12,12,11
    cfg.opt.min_kblk = 24;
    cfg.opt.abft = abft;
    c[abft] = run_case(cfg);
  }
  EXPECT_EQ(c[0], c[1]);
}

TEST(Ca3dmm, ForcedGridOverride) {
  Cfg cfg{40, 40, 40, 16};
  cfg.opt.force_grid = ProcGrid{4, 2, 2};  // c=2, s=2, replicates B
  run_case(cfg);
  Cfg cfg2{40, 40, 40, 16};
  cfg2.opt.force_grid = ProcGrid{2, 4, 2};  // replicates A
  run_case(cfg2);
  Cfg cfg3{40, 40, 40, 16};
  cfg3.opt.force_grid = ProcGrid{1, 4, 4};  // s=1: degenerate Cannon
  run_case(cfg3);
}

TEST(Ca3dmm, ReplicationFactorGreaterThanTwo) {
  Cfg cfg{64, 8, 32, 16};
  cfg.opt.force_grid = ProcGrid{8, 2, 1};  // c=4, s=2, replicates B
  run_case(cfg);
  Cfg cfg2{8, 64, 32, 16};
  cfg2.opt.force_grid = ProcGrid{2, 8, 1};  // c=4, s=2, replicates A
  run_case(cfg2);
}

TEST(Ca3dmm, TunedCollectiveSchedules) {
  // Ca3dmmOptions::coll overrides the replication and reduction
  // communicators' schedules; tuned (auto) selection must leave the result
  // bit-correct on a grid exercising both collectives (c=2, pk=2).
  Cfg cfg{40, 40, 40, 16};
  cfg.opt.force_grid = ProcGrid{4, 2, 2};
  cfg.opt.coll = simmpi::CollectiveConfig::tuned();
  run_case(cfg);
  Cfg cfg2{8, 64, 64, 16};
  cfg2.opt.force_grid = ProcGrid{2, 8, 1};  // c=4, replicates A
  cfg2.opt.coll = simmpi::CollectiveConfig::tuned();
  run_case(cfg2);
}

TEST(Ca3dmm, RepeatedMultiplySamePlan) {
  // Reusing one plan for several multiplications (driver-algorithm pattern,
  // e.g. density-matrix purification).
  const Cfg cfg{30, 30, 30, 8};
  const BlockLayout lay = BlockLayout::col_1d(30, 30, 8);
  const Ca3dmmPlan plan = Ca3dmmPlan::make(30, 30, 30, 8, cfg.opt);
  const Matrix<double> c_ref = reference_product(30, 30, 30, false, false);

  Cluster cl(8, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<double> a, b;
    fill_local(lay, world.rank(), kSeedA, a);
    fill_local(lay, world.rank(), kSeedB, b);
    std::vector<double> c(static_cast<size_t>(lay.local_size(world.rank())));
    for (int rep = 0; rep < 3; ++rep) {
      ca3dmm_multiply<double>(world, plan, false, false, lay, a.data(), lay,
                              b.data(), lay, c.data());
    }
    i64 pos = 0;
    for (const Rect& r : lay.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(c[static_cast<size_t>(pos++)], c_ref(i, j), 1e-10);
  });
}

TEST(Ca3dmm, BlockCyclicUserLayout) {
  // ScaLAPACK-style block-cyclic input/output distributions.
  const i64 m = 36, n = 30, k = 42;
  const int P = 6;
  const Matrix<double> c_ref = reference_product(m, n, k, false, false);
  const BlockLayout a_lay = BlockLayout::block_cyclic(m, k, 2, 3, 4, 5);
  const BlockLayout b_lay = BlockLayout::block_cyclic(k, n, 3, 2, 5, 4);
  const BlockLayout c_lay = BlockLayout::block_cyclic(m, n, 2, 3, 3, 3);
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P);
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<double> a, b;
    fill_local(a_lay, world.rank(), kSeedA, a);
    fill_local(b_lay, world.rank(), kSeedB, b);
    std::vector<double> c(
        static_cast<size_t>(c_lay.local_size(world.rank())));
    ca3dmm_multiply<double>(world, plan, false, false, a_lay, a.data(), b_lay,
                            b.data(), c_lay, c.data());
    i64 pos = 0;
    for (const Rect& r : c_lay.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(c[static_cast<size_t>(pos++)], c_ref(i, j), 1e-10);
  });
}

TEST(Ca3dmm, RejectsMismatchedLayouts) {
  const Ca3dmmPlan plan = Ca3dmmPlan::make(8, 8, 8, 2);
  Cluster cl(2, Machine::unit_test());
  EXPECT_THROW(cl.run([&](Comm& world) {
                 const BlockLayout good = BlockLayout::col_1d(8, 8, 2);
                 const BlockLayout bad = BlockLayout::col_1d(9, 8, 2);
                 std::vector<double> a(32), b(32), c(36);
                 ca3dmm_multiply<double>(world, plan, false, false, bad,
                                         a.data(), good, b.data(), good,
                                         c.data());
               }),
               Error);
}

}  // namespace
}  // namespace ca3dmm
