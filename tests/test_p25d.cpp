// The 2.5D algorithm baseline: plan geometry and end-to-end correctness
// against the serial reference, across replication depths, uneven blocks,
// transposes, and idle ranks.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/p25d.hpp"
#include "costmodel/drift.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using simmpi::Phase;
using simmpi::RankStats;

/// Runs the plan on col_1d layouts, checks C against the reference and
/// returns every rank's stats.
std::vector<RankStats> run_p25d(i64 m, i64 n, i64 k, int P, bool ta, bool tb,
                                std::optional<std::pair<int, int>> qc = {}) {
  const P25dPlan plan = P25dPlan::make(m, n, k, P, qc);
  SCOPED_TRACE(strprintf("m=%lld n=%lld k=%lld P=%d q=%d c=%d",
                         static_cast<long long>(m), static_cast<long long>(n),
                         static_cast<long long>(k), P, plan.q(), plan.c()));
  Matrix<double> a(ta ? k : m, ta ? m : k), b(tb ? n : k, tb ? k : n);
  a.fill_random(51);
  b.fill_random(52);
  Matrix<double> c_ref(m, n);
  gemm_ref<double>(ta, tb, m, n, k, 1.0, a.data(), b.data(), c_ref.data());

  const BlockLayout a_lay = BlockLayout::col_1d(a.rows(), a.cols(), P);
  const BlockLayout b_lay = BlockLayout::col_1d(b.rows(), b.cols(), P);
  const BlockLayout c_lay = BlockLayout::col_1d(m, n, P);

  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<double> al, bl;
    fill_local(a_lay, world.rank(), 51, al);
    fill_local(b_lay, world.rank(), 52, bl);
    std::vector<double> cb(
        static_cast<size_t>(c_lay.local_size(world.rank())));
    run_plan<double>(world, plan, ta, tb, a_lay, al.data(), b_lay, bl.data(),
                     c_lay, cb.data());
    i64 pos = 0;
    for (const Rect& r : c_lay.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(cb[static_cast<size_t>(pos++)], c_ref(i, j),
                      1e-11 * (k + 1));
  });
  std::vector<RankStats> st;
  for (int r = 0; r < P; ++r) st.push_back(cl.stats(r));
  return st;
}

TEST(P25d, PlanGeometry) {
  // P = 32: q=2..., best utilization; c <= q always.
  const P25dPlan p = P25dPlan::make(1000, 1000, 1000, 32);
  EXPECT_LE(p.c(), p.q());
  EXPECT_LE(p.active(), 32);
  EXPECT_GE(p.active(), 16);
  EXPECT_TRUE(p.a_native().covers_exactly());
  EXPECT_TRUE(p.b_native().covers_exactly());
  EXPECT_TRUE(p.c_native().covers_exactly());
}

TEST(P25d, ReducesToCannonWhenC1) {
  const P25dPlan p = P25dPlan::make(100, 100, 8, 4);
  EXPECT_EQ(p.c(), 1);
  EXPECT_EQ(p.q(), 2);
}

TEST(P25d, SquareEven) { run_p25d(32, 32, 32, 8, false, false); }

TEST(P25d, ForcedDepths) {
  run_p25d(24, 24, 24, 4, false, false, std::make_pair(2, 1));   // pure 2D
  run_p25d(24, 24, 24, 8, false, false, std::make_pair(2, 2));   // 2.5D
  run_p25d(48, 48, 48, 27, false, false, std::make_pair(3, 3));  // full 3D
  run_p25d(36, 36, 36, 32, false, false, std::make_pair(4, 2));
  // 1 x 1 grids: layer 0 runs the one local GEMM, the 0-step layers add
  // nothing to C.
  run_p25d(24, 24, 24, 3, false, false, std::make_pair(1, 3));
}

TEST(P25d, UnevenBlocks) {
  run_p25d(37, 29, 53, 8, false, false, std::make_pair(2, 2));
  run_p25d(23, 31, 17, 18, false, false, std::make_pair(3, 2));
}

TEST(P25d, Transposes) {
  run_p25d(30, 40, 24, 8, true, false, std::make_pair(2, 2));
  run_p25d(30, 40, 24, 8, false, true, std::make_pair(2, 2));
  run_p25d(30, 40, 24, 8, true, true, std::make_pair(2, 2));
}

TEST(P25d, IdleRanks) {
  run_p25d(24, 24, 24, 11, false, false);  // 11 ranks: some idle
}

TEST(P25d, SingleProcess) { run_p25d(9, 7, 11, 1, false, false); }

TEST(P25d, DepthLargerThanStepsIsStillCorrect) {
  // Forced c > q: q = 2 shift steps over c = 4 layers, so layers 2 and 3 run
  // a window of 0 steps but still take part in replication and reduction.
  // Such a window skips Cannon's skew too: those layers send no shift
  // bytes, and C and the cost model's price stay exact.
  const int q = 2, c = 4, P = q * q * c;
  const std::vector<RankStats> st =
      run_p25d(20, 20, 20, P, false, false, std::make_pair(q, c));
  const int shift = static_cast<int>(Phase::kShift);
  double stepping_layers = 0;
  for (int r = 0; r < P; ++r) {
    const double sent = st[static_cast<size_t>(r)].bytes_sent_s[shift];
    if (r / (q * q) >= q)
      EXPECT_EQ(sent, 0) << "rank " << r;
    else
      stepping_layers += sent;
  }
  EXPECT_GT(stepping_layers, 0);

  costmodel::Workload w(20, 20, 20);
  w.force_grid = ProcGrid{q, q, c};  // (q, c) as (pm, pk)
  Cluster cl(P, Machine::unit_test());
  const costmodel::DriftReport rep =
      costmodel::check_drift(costmodel::Algo::kP25d, w, cl);
  EXPECT_EQ(rep.total.rel, 0) << rep.table();
  for (const costmodel::PhaseDrift& d : rep.phases)
    EXPECT_EQ(d.rel, 0) << d.name << "\n" << rep.table();
  EXPECT_FALSE(rep.peak_bytes_flagged) << rep.table();
}

TEST(P25d, ExtraMemoryComparedTo2D) {
  // The 2.5D trade-off: deeper replication uses more per-rank memory.
  auto peak_for = [&](int q, int c, int P) {
    const P25dPlan plan = P25dPlan::make(48, 48, 48, P, std::make_pair(q, c));
    const BlockLayout a_lay = plan.a_native();
    const BlockLayout b_lay = plan.b_native();
    const BlockLayout c_lay = plan.c_native();
    Cluster cl(P, Machine::unit_test());
    cl.run([&](Comm& world) {
      std::vector<double> al, bl;
      fill_local(a_lay, world.rank(), 1, al);
      fill_local(b_lay, world.rank(), 2, bl);
      std::vector<double> cb(
          static_cast<size_t>(c_lay.local_size(world.rank())));
      run_plan<double>(world, plan, false, false, a_lay, al.data(), b_lay,
                       bl.data(), c_lay, cb.data());
    });
    return cl.aggregate_stats().peak_bytes;
  };
  // Same process count: the 3-D end of the spectrum (q=2, c=4) holds larger
  // blocks per rank than the 2-D end (q=4, c=1) — the classic 2.5D
  // memory-for-communication trade.
  EXPECT_GT(peak_for(2, 4, 16), peak_for(4, 1, 16));
}

}  // namespace
}  // namespace ca3dmm
