// Baseline PGEMM implementations vs the serial reference: SUMMA, the
// COSMA-like schedule, CARMA, the CTF-like 2.5D, and the 1-D algorithms.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/cosma_like.hpp"
#include "baselines/ctf_like.hpp"
#include "baselines/oned.hpp"
#include "baselines/summa.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

constexpr std::uint64_t kSeedA = 31, kSeedB = 32;

using MultiplyFn = std::function<void(
    Comm&, bool, bool, const BlockLayout&, const double*, const BlockLayout&,
    const double*, const BlockLayout&, double*)>;

void run_baseline(i64 m, i64 n, i64 k, int P, bool ta, bool tb,
                  const MultiplyFn& fn) {
  Matrix<double> a(ta ? k : m, ta ? m : k), b(tb ? n : k, tb ? k : n);
  a.fill_random(kSeedA);
  b.fill_random(kSeedB);
  Matrix<double> c_ref(m, n);
  gemm_ref<double>(ta, tb, m, n, k, 1.0, a.data(), b.data(), c_ref.data());

  const BlockLayout a_lay = BlockLayout::col_1d(a.rows(), a.cols(), P);
  const BlockLayout b_lay = BlockLayout::col_1d(b.rows(), b.cols(), P);
  const BlockLayout c_lay = BlockLayout::col_1d(m, n, P);

  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<double> al, bl;
    fill_local(a_lay, world.rank(), kSeedA, al);
    fill_local(b_lay, world.rank(), kSeedB, bl);
    std::vector<double> cl_buf(
        static_cast<size_t>(c_lay.local_size(world.rank())), -7.0);
    fn(world, ta, tb, a_lay, al.data(), b_lay, bl.data(), c_lay,
       cl_buf.data());
    i64 pos = 0;
    for (const Rect& r : c_lay.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(cl_buf[static_cast<size_t>(pos++)], c_ref(i, j),
                      1e-11 * (k + 1))
              << "(" << i << "," << j << ")";
  });
}

MultiplyFn summa_fn(i64 m, i64 n, i64 k, int P,
                    std::optional<std::pair<int, int>> grid = {}) {
  const SummaPlan plan = SummaPlan::make(m, n, k, P, grid);
  return [plan](Comm& w, bool ta, bool tb, const BlockLayout& la,
                const double* a, const BlockLayout& lb, const double* b,
                const BlockLayout& lc, double* c) {
    run_plan<double>(w, plan, ta, tb, la, a, lb, b, lc, c);
  };
}

MultiplyFn cosma_fn(const CosmaPlan& plan) {
  return [plan](Comm& w, bool ta, bool tb, const BlockLayout& la,
                const double* a, const BlockLayout& lb, const double* b,
                const BlockLayout& lc, double* c) {
    run_plan<double>(w, plan, ta, tb, la, a, lb, b, lc, c);
  };
}

// ---------------- SUMMA ----------------

TEST(Summa, Square) { run_baseline(24, 24, 24, 4, false, false, summa_fn(24, 24, 24, 4)); }

TEST(Summa, RectangularGridUnalignedPanels) {
  // pr=3, pc=2-ish grids: A and B k-partitions differ -> interval walking.
  run_baseline(30, 20, 50, 6, false, false, summa_fn(30, 20, 50, 6));
}

TEST(Summa, UnevenBlocks) {
  run_baseline(37, 29, 53, 6, false, false, summa_fn(37, 29, 53, 6));
  // k smaller than the grid: empty k-parts on both sides of the panel walk.
  run_baseline(24, 24, 2, 16, false, false,
               summa_fn(24, 24, 2, 16, std::make_pair(4, 4)));
}

TEST(Summa, Transposes) {
  run_baseline(30, 40, 24, 4, true, false, summa_fn(30, 40, 24, 4));
  run_baseline(30, 40, 24, 4, false, true, summa_fn(30, 40, 24, 4));
  run_baseline(30, 40, 24, 4, true, true, summa_fn(30, 40, 24, 4));
}

TEST(Summa, IdleRanksWithPrimeP) {
  run_baseline(24, 24, 24, 5, false, false, summa_fn(24, 24, 24, 5));
}

TEST(Summa, SingleProcess) {
  run_baseline(9, 7, 11, 1, false, false, summa_fn(9, 7, 11, 1));
}

TEST(Summa, PlanHasNoKParallelism) {
  const SummaPlan p = SummaPlan::make(100, 100, 100000, 16);
  EXPECT_EQ(p.active(), 16);  // still a 2-D grid, k never partitioned
  EXPECT_TRUE(p.a_native().covers_exactly());
  EXPECT_TRUE(p.b_native().covers_exactly());
  EXPECT_TRUE(p.c_native().covers_exactly());
}

// ---------------- COSMA-like ----------------

TEST(CosmaLike, StrategyExample2) {
  // Paper §III-C: m=n=32, k=64, grid 2x2x4 -> steps k/4, m/2, n/2.
  const CosmaPlan p = CosmaPlan::make(32, 32, 64, 16);
  ASSERT_EQ(p.grid(), (ProcGrid{2, 2, 4}));
  ASSERT_EQ(p.steps().size(), 3u);
  EXPECT_EQ(p.steps()[0].dim, 'k');
  EXPECT_EQ(p.steps()[0].ways, 4);
  EXPECT_EQ(p.steps()[1].dim, 'm');
  EXPECT_EQ(p.steps()[2].dim, 'n');
}

TEST(CosmaLike, LayoutsCoverExactly) {
  for (auto [m, n, k, P] : {std::tuple<i64, i64, i64, int>{32, 32, 64, 16},
                            {37, 29, 53, 12},
                            {12, 12, 400, 8},
                            {400, 12, 12, 8},
                            {40, 40, 40, 7}}) {
    const CosmaPlan p = CosmaPlan::make(m, n, k, P);
    EXPECT_TRUE(p.a_native().covers_exactly()) << m << "," << n << "," << k;
    EXPECT_TRUE(p.b_native().covers_exactly());
    EXPECT_TRUE(p.c_native().covers_exactly());
  }
}

TEST(CosmaLike, CorrectAcrossShapes) {
  for (auto [m, n, k, P] : {std::tuple<i64, i64, i64, int>{32, 32, 64, 16},
                            {37, 29, 53, 12},
                            {12, 12, 200, 8},
                            {200, 12, 12, 8},
                            {80, 80, 9, 8},
                            {40, 40, 40, 7}}) {
    run_baseline(m, n, k, P, false, false,
                 cosma_fn(CosmaPlan::make(m, n, k, P)));
  }
}

TEST(CosmaLike, Transposes) {
  run_baseline(30, 40, 24, 8, true, true,
               cosma_fn(CosmaPlan::make(30, 40, 24, 8)));
}

// ---------------- CARMA ----------------

TEST(Carma, RequiresPowerOfTwo) {
  EXPECT_THROW(CosmaPlan::make_carma(10, 10, 10, 12), Error);
}

TEST(Carma, BisectsLargestDimension) {
  const CosmaPlan p = CosmaPlan::make_carma(32, 32, 256, 8);
  // k is largest: first (and likely all) bisections split k.
  EXPECT_EQ(p.steps()[0].dim, 'k');
  EXPECT_EQ(p.grid().pk, 8);
}

TEST(Carma, CorrectAcrossShapes) {
  for (auto [m, n, k, P] : {std::tuple<i64, i64, i64, int>{32, 32, 64, 8},
                            {37, 29, 53, 16},
                            {12, 12, 200, 8},
                            {100, 30, 14, 4}}) {
    run_baseline(m, n, k, P, false, false,
                 cosma_fn(CosmaPlan::make_carma(m, n, k, P)));
  }
}

// ---------------- CTF-like ----------------

TEST(CtfLike, Correct) {
  const CtfPlan plan = CtfPlan::make(30, 30, 60, 8);
  run_baseline(30, 30, 60, 8, false, false,
               [&](Comm& w, bool ta, bool tb, const BlockLayout& la,
                   const double* a, const BlockLayout& lb, const double* b,
                   const BlockLayout& lc, double* c) {
                 run_plan<double>(w, plan, ta, tb, la, a, lb, b, lc, c);
               });
}

TEST(CtfLike, GridIsShapeOblivious) {
  const CtfPlan a = CtfPlan::make(10000, 10000, 300000, 16);
  const CtfPlan b = CtfPlan::make(300000, 10000, 10000, 16);
  EXPECT_EQ(a.grid(), b.grid());
}

// ---------------- 1-D algorithms ----------------

TEST(OneD, MPartitioned) {
  const CosmaPlan p = oned_m_plan(64, 12, 12, 8);
  EXPECT_EQ(p.grid(), (ProcGrid{8, 1, 1}));
  run_baseline(64, 12, 12, 8, false, false, cosma_fn(p));
}

TEST(OneD, NPartitioned) {
  const CosmaPlan p = oned_n_plan(12, 64, 12, 8);
  EXPECT_EQ(p.grid(), (ProcGrid{1, 8, 1}));
  run_baseline(12, 64, 12, 8, false, false, cosma_fn(p));
}

TEST(OneD, KPartitioned) {
  const CosmaPlan p = oned_k_plan(12, 12, 256, 8);
  EXPECT_EQ(p.grid(), (ProcGrid{1, 1, 8}));
  run_baseline(12, 12, 256, 8, false, false, cosma_fn(p));
}

TEST(OneD, ClampsToDimension) {
  EXPECT_EQ(oned_m_plan(3, 100, 100, 8).grid().pm, 3);
}

}  // namespace
}  // namespace ca3dmm
