// Property sweep: CA3DMM equals the serial reference for randomly sampled
// shapes, process counts, transposes, layouts, and engine options. Each
// sampled configuration is an independent parameterized test case, so a
// failure pinpoints the configuration.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/ca3dmm.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

struct PropertyCase {
  i64 m, n, k;
  int P;
  bool ta, tb;
  int layout;    // 0 col, 1 row, 2 grid
  i64 min_kblk;
  bool use_summa;
};

std::vector<PropertyCase> sample_cases() {
  // Deterministic sampling: the suite is reproducible run to run.
  Rng rng(2026);
  std::vector<PropertyCase> cases;
  for (int i = 0; i < 48; ++i) {
    PropertyCase c;
    c.m = rng.uniform(1, 90);
    c.n = rng.uniform(1, 90);
    c.k = rng.uniform(1, 140);
    c.P = static_cast<int>(rng.uniform(1, 20));
    c.ta = rng.uniform(0, 1) == 1;
    c.tb = rng.uniform(0, 1) == 1;
    c.layout = static_cast<int>(rng.uniform(0, 2));
    c.min_kblk = rng.uniform(0, 1) == 1 ? 0 : rng.uniform(4, 256);
    c.use_summa = rng.uniform(0, 3) == 0;  // 25% SUMMA inner engine
    cases.push_back(c);
  }
  return cases;
}

BlockLayout pick_layout(int kind, i64 rows, i64 cols, int P) {
  switch (kind) {
    case 0: return BlockLayout::col_1d(rows, cols, P);
    case 1: return BlockLayout::row_1d(rows, cols, P);
    default: {
      int pr = 1;
      for (int d = 1; d * d <= P; ++d)
        if (P % d == 0) pr = d;
      return BlockLayout::grid_2d(rows, cols, pr, P / pr,
                                  /*col_major_ranks=*/(rows + cols) % 2 == 0);
    }
  }
}

class Ca3dmmProperty : public ::testing::TestWithParam<int> {};

TEST_P(Ca3dmmProperty, MatchesReference) {
  const PropertyCase c =
      sample_cases()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(strprintf("m=%lld n=%lld k=%lld P=%d ta=%d tb=%d layout=%d "
                         "min_kblk=%lld summa=%d",
                         static_cast<long long>(c.m),
                         static_cast<long long>(c.n),
                         static_cast<long long>(c.k), c.P, c.ta, c.tb,
                         c.layout, static_cast<long long>(c.min_kblk),
                         c.use_summa));

  Matrix<double> a(c.ta ? c.k : c.m, c.ta ? c.m : c.k),
      b(c.tb ? c.n : c.k, c.tb ? c.k : c.n);
  a.fill_random(41);
  b.fill_random(42);
  Matrix<double> c_ref(c.m, c.n);
  gemm_ref<double>(c.ta, c.tb, c.m, c.n, c.k, 1.0, a.data(), b.data(),
                   c_ref.data());

  const BlockLayout a_lay = pick_layout(c.layout, a.rows(), a.cols(), c.P);
  const BlockLayout b_lay = pick_layout(c.layout, b.rows(), b.cols(), c.P);
  const BlockLayout c_lay = pick_layout(c.layout, c.m, c.n, c.P);

  Ca3dmmOptions opt;
  opt.min_kblk = c.min_kblk;
  opt.use_summa = c.use_summa;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(c.m, c.n, c.k, c.P, opt);

  Cluster cl(c.P, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<double> al, bl;
    fill_local(a_lay, world.rank(), 41, al);
    fill_local(b_lay, world.rank(), 42, bl);
    std::vector<double> cb(
        static_cast<size_t>(c_lay.local_size(world.rank())));
    ca3dmm_multiply<double>(world, plan, c.ta, c.tb, a_lay, al.data(), b_lay,
                            bl.data(), c_lay, cb.data());
    i64 pos = 0;
    for (const Rect& r : c_lay.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(cb[static_cast<size_t>(pos++)], c_ref(i, j),
                      1e-11 * (c.k + 1));
  });
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, Ca3dmmProperty, ::testing::Range(0, 48));

}  // namespace
}  // namespace ca3dmm
