// Randomized property sweep over the baseline algorithms: for sampled
// (shape, P, transposes), every baseline must agree with the serial
// reference — and with CA3DMM itself (all algorithms compute the same
// product, so cross-checking them catches oracle bugs too).
#include <gtest/gtest.h>

#include <vector>

#include "baselines/cosma_like.hpp"
#include "baselines/ctf_like.hpp"
#include "baselines/p25d.hpp"
#include "baselines/summa.hpp"
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

struct Sample {
  i64 m, n, k;
  int P;
  bool ta, tb;
};

std::vector<Sample> samples() {
  Rng rng(777);
  std::vector<Sample> out;
  for (int i = 0; i < 14; ++i) {
    Sample s;
    s.m = rng.uniform(2, 60);
    s.n = rng.uniform(2, 60);
    s.k = rng.uniform(2, 90);
    s.P = static_cast<int>(rng.uniform(2, 14));
    s.ta = rng.uniform(0, 1) == 1;
    s.tb = rng.uniform(0, 1) == 1;
    out.push_back(s);
  }
  return out;
}

class BaselineProperty : public ::testing::TestWithParam<int> {};

TEST_P(BaselineProperty, AllAlgorithmsAgreeWithReference) {
  const Sample s = samples()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(strprintf("m=%lld n=%lld k=%lld P=%d ta=%d tb=%d",
                         static_cast<long long>(s.m),
                         static_cast<long long>(s.n),
                         static_cast<long long>(s.k), s.P, s.ta, s.tb));

  Matrix<double> a(s.ta ? s.k : s.m, s.ta ? s.m : s.k),
      b(s.tb ? s.n : s.k, s.tb ? s.k : s.n);
  a.fill_random(61);
  b.fill_random(62);
  Matrix<double> c_ref(s.m, s.n);
  gemm_ref<double>(s.ta, s.tb, s.m, s.n, s.k, 1.0, a.data(), b.data(),
                   c_ref.data());

  const BlockLayout a_lay = BlockLayout::col_1d(a.rows(), a.cols(), s.P);
  const BlockLayout b_lay = BlockLayout::col_1d(b.rows(), b.cols(), s.P);
  const BlockLayout c_lay = BlockLayout::col_1d(s.m, s.n, s.P);

  const Ca3dmmPlan ca_plan = Ca3dmmPlan::make(s.m, s.n, s.k, s.P);
  const CosmaPlan cs_plan = CosmaPlan::make(s.m, s.n, s.k, s.P);
  const CtfPlan ctf_plan = CtfPlan::make(s.m, s.n, s.k, s.P);
  const SummaPlan su_plan = SummaPlan::make(s.m, s.n, s.k, s.P);
  const P25dPlan pd_plan = P25dPlan::make(s.m, s.n, s.k, s.P);

  for (int algo = 0; algo < 5; ++algo) {
    Cluster cl(s.P, Machine::unit_test());
    cl.run([&](Comm& world) {
      std::vector<double> al, bl;
      fill_local(a_lay, world.rank(), 61, al);
      fill_local(b_lay, world.rank(), 62, bl);
      std::vector<double> cb(
          static_cast<size_t>(c_lay.local_size(world.rank())));
      switch (algo) {
        case 0:
          ca3dmm_multiply<double>(world, ca_plan, s.ta, s.tb, a_lay, al.data(),
                                  b_lay, bl.data(), c_lay, cb.data());
          break;
        case 1:
          run_plan<double>(world, cs_plan, s.ta, s.tb, a_lay, al.data(), b_lay,
                           bl.data(), c_lay, cb.data());
          break;
        case 2:
          run_plan<double>(world, ctf_plan, s.ta, s.tb, a_lay, al.data(), b_lay,
                           bl.data(), c_lay, cb.data());
          break;
        case 3:
          run_plan<double>(world, su_plan, s.ta, s.tb, a_lay, al.data(), b_lay,
                           bl.data(), c_lay, cb.data());
          break;
        default:
          run_plan<double>(world, pd_plan, s.ta, s.tb, a_lay, al.data(), b_lay,
                           bl.data(), c_lay, cb.data());
          break;
      }
      i64 pos = 0;
      for (const Rect& r : c_lay.rects_of(world.rank()))
        for (i64 i = r.r.lo; i < r.r.hi; ++i)
          for (i64 j = r.c.lo; j < r.c.hi; ++j)
            ASSERT_NEAR(cb[static_cast<size_t>(pos++)], c_ref(i, j),
                        1e-11 * (s.k + 1))
                << "algo " << algo;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, BaselineProperty,
                         ::testing::Range(0, 14));

}  // namespace
}  // namespace ca3dmm
