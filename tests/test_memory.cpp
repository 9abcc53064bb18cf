// Memory accounting against the paper's eq. (11):
//
//     S = 2 (c mk + kn) / P + k_p mn / P      (elements, A-replicated case
//                                              shown; symmetric for B)
//
// The engine's tracked peak must sit at or slightly above S * esize for
// native-layout runs (the paper's formula excludes redistribution staging
// and the small final-C buffer), and well under 2x.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/ca3dmm.hpp"
#include "costmodel/model.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/pool.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

/// Eq. (11) in bytes for one rank (upper bound over ranks: nominal sizes).
double eq11_bytes(const Ca3dmmPlan& plan) {
  const double P = plan.active();
  const double m = static_cast<double>(plan.m());
  const double n = static_cast<double>(plan.n());
  const double k = static_cast<double>(plan.k());
  const double c = plan.c();
  const double kp = plan.grid().pk;
  const bool ra = plan.replicates_a();
  const double repl_term = ra ? (c * m * k + k * n) : (m * k + c * k * n);
  return (2.0 * repl_term / P + kp * m * n / P) * 8.0;
}

i64 run_peak(i64 m, i64 n, i64 k, int P, const Ca3dmmOptions& opt = {}) {
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P, opt);
  const BlockLayout a_nat = plan.a_native();
  const BlockLayout b_nat = plan.b_native();
  const BlockLayout c_nat = plan.c_native();
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a(static_cast<size_t>(a_nat.local_size(me)), 1.0);
    std::vector<double> b(static_cast<size_t>(b_nat.local_size(me)), 1.0);
    std::vector<double> c(static_cast<size_t>(c_nat.local_size(me)));
    ca3dmm_multiply<double>(world, plan, false, false, a_nat, a.data(), b_nat,
                            b.data(), c_nat, c.data());
  });
  return cl.aggregate_stats().peak_bytes;
}

void check_eq11(i64 m, i64 n, i64 k, int P) {
  Ca3dmmOptions opt;
  opt.min_kblk = 0;  // no aggregation buffers: the eq. (11) configuration
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P, opt);
  const double s11 = eq11_bytes(plan);
  const double peak = static_cast<double>(run_peak(m, n, k, P, opt));
  SCOPED_TRACE(strprintf("m=%lld n=%lld k=%lld P=%d grid %dx%dx%d",
                         static_cast<long long>(m), static_cast<long long>(n),
                         static_cast<long long>(k), P, plan.grid().pm,
                         plan.grid().pn, plan.grid().pk));
  // Redistribution staging (native->native still stages local data once) and
  // the reduce pack buffer add at most ~mn/P-scale terms on top of (11).
  EXPECT_LT(peak, 2.0 * s11);
  EXPECT_GT(peak, 0.45 * s11);  // sanity: accounting is not missing buffers
}

TEST(Memory, Eq11SquareEven) { check_eq11(64, 64, 64, 8); }
TEST(Memory, Eq11ReplicatedA) { check_eq11(32, 64, 32, 8); }
TEST(Memory, Eq11ReplicatedB) { check_eq11(64, 32, 32, 8); }
TEST(Memory, Eq11DeepK) { check_eq11(24, 24, 512, 16); }
TEST(Memory, Eq11Flat) { check_eq11(96, 96, 16, 16); }

TEST(Memory, AsymptoticSquareScaling) {
  // Eq. (11) for m=n=k: S = O(m^2 / P^(2/3)) — doubling the problem at 8x
  // the processes keeps per-rank memory roughly constant * 2^2/8^(2/3) = 1.
  const i64 peak1 = run_peak(32, 32, 32, 4);
  const i64 peak2 = run_peak(64, 64, 64, 32);
  // m^2/P^(2/3): (64^2/32^(2/3)) / (32^2/4^(2/3)) = 4 / (8^(2/3)) = 1.0
  EXPECT_LT(static_cast<double>(peak2) / static_cast<double>(peak1), 2.0);
  EXPECT_GT(static_cast<double>(peak2) / static_cast<double>(peak1), 0.5);
}

TEST(Memory, AggregationBuffersAccounted) {
  // Multi-shift aggregation allocates staging proportional to min_kblk.
  Ca3dmmOptions no_agg;
  no_agg.min_kblk = 0;
  Ca3dmmOptions agg;
  agg.min_kblk = 512;  // force large aggregation buffers
  const i64 p1 = run_peak(32, 32, 128, 16, no_agg);
  const i64 p2 = run_peak(32, 32, 128, 16, agg);
  EXPECT_GT(p2, p1);
}

TEST(Memory, ModelTracksGridChanges) {
  // The paper observes that CA3DMM's per-process memory decays unevenly with
  // P because the process grid changes shape between counts (Table I
  // discussion). Our solver's grid sequence differs in detail, so assert the
  // qualitative features: strong overall decay across the P range and a
  // non-uniform step pattern (grid transitions), not smooth 2x halving.
  const simmpi::Machine mach = Machine::phoenix_mpi();
  costmodel::Workload w{6000, 6000, 1200000};
  std::vector<double> ratios;
  i64 first = 0, prev = 0, last = 0;
  for (int P : {192, 384, 768, 1536, 3072}) {
    const auto pred = costmodel::predict(costmodel::Algo::kCa3dmm, w, P, mach);
    if (prev > 0)
      ratios.push_back(static_cast<double>(prev) /
                       static_cast<double>(pred.peak_bytes));
    if (first == 0) first = pred.peak_bytes;
    prev = last = pred.peak_bytes;
  }
  EXPECT_GT(static_cast<double>(first) / static_cast<double>(last), 8.0);
  const auto [mn, mx] = std::minmax_element(ratios.begin(), ratios.end());
  EXPECT_GT(*mx / *mn, 1.4);  // uneven decay = grid shape transitions
}

TEST(Memory, BlockGaugesTrackGrowsAndHighWater) {
  simmpi::BufferPool pool;
  EXPECT_EQ(pool.stats().live_bytes, 0);
  EXPECT_EQ(pool.stats().high_water_bytes, 0);

  std::byte* a = pool.reserve(4096);  // first use: a grow
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().live_bytes, 4096);
  EXPECT_EQ(pool.stats().high_water_bytes, 4096);
  // A smaller reserve of the same use is the block itself, uncounted.
  EXPECT_EQ(pool.reserve(1024), a);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 1);

  // A new use that fits is a hit on the same memory.
  pool.begin_use();
  EXPECT_EQ(pool.reserve(4096), a);
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(pool.reserve(0), a);  // no use of the block
  EXPECT_EQ(pool.stats().hits, 1);

  // Growing frees the old block first: the footprint is one block, and the
  // high-water mark is the largest block, not the sum.
  pool.reserve(8192);
  EXPECT_EQ(pool.stats().misses, 2);
  EXPECT_EQ(pool.stats().live_bytes, 8192);
  EXPECT_EQ(pool.stats().high_water_bytes, 8192);
  pool.release();
  EXPECT_EQ(pool.stats().live_bytes, 0);
  EXPECT_EQ(pool.stats().high_water_bytes, 8192);  // historical
}

TEST(Memory, BlockHighWaterIsMonotonic) {
  simmpi::BufferPool pool;
  i64 prev = 0;
  for (int i : {3, 1, 4, 1, 5, 9, 2, 6}) {
    pool.begin_use();
    pool.reserve(i * 256);
    EXPECT_GE(pool.stats().high_water_bytes, prev);
    prev = pool.stats().high_water_bytes;
  }
  EXPECT_EQ(pool.stats().high_water_bytes, 9 * 256);
  EXPECT_EQ(pool.stats().live_bytes, 9 * 256);  // the block never shrinks
  EXPECT_EQ(pool.stats().misses, 4);            // 3, 4, 5, 9 grew it
  EXPECT_EQ(pool.stats().hits, 4);
}

TEST(Memory, FaultAbortLeavesNoLeakedOrStaleBuffers) {
  // Recovery regression: a rank killed mid-multiply unwinds every peer.
  // Afterwards (a) no tracked bytes may remain on any rank — cur_bytes back
  // to zero, nothing leaked — and (b) a clean rerun on the SAME Cluster,
  // whose rank blocks the failed attempt left holding its bytes, must grow
  // no block and produce a bit-identical C: every slot is
  // written (or zeroed) before it is read, so stale bytes never leak in.
  // The custom layouts make every conversion stage through the arena tail.
  const int P = 4;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(32, 32, 32, P);
  const BlockLayout la = BlockLayout::row_1d(32, 32, P);
  const BlockLayout lb = BlockLayout::col_1d(32, 32, P);
  const BlockLayout lc = BlockLayout::row_1d(32, 32, P);

  std::vector<std::vector<double>> c_out(P);
  const auto rank_body = [&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(la, me, 3, a);
    fill_local(lb, me, 4, b);
    std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
    ca3dmm_multiply<double>(world, plan, false, false, la, a.data(), lb,
                            b.data(), lc, c.data());
    c_out[static_cast<size_t>(me)] = std::move(c);
  };

  Cluster cl(P, Machine::unit_test());
  simmpi::FaultPlan fp;
  fp.kills.push_back({.rank = 2, .at_op = 6});  // mid-multiply
  cl.set_fault_plan(fp);
  EXPECT_THROW(cl.run(rank_body), Error);
  for (int r = 0; r < P; ++r)
    EXPECT_EQ(cl.stats(r).cur_bytes, 0) << "rank " << r << " leaked";
  EXPECT_EQ(cl.host_profile().pool_misses, P);  // every rank grew its block

  // Clean rerun on the same (now warm) blocks.
  cl.set_fault_plan(simmpi::FaultPlan{});
  cl.run(rank_body);
  for (int r = 0; r < P; ++r)
    EXPECT_EQ(cl.stats(r).cur_bytes, 0) << "rank " << r;
  EXPECT_EQ(cl.host_profile().pool_hits, P);
  EXPECT_EQ(cl.host_profile().pool_misses, 0);

  // Reference on a fresh Cluster: the rerun must match bit for bit.
  const std::vector<std::vector<double>> c_rerun = c_out;
  Cluster ref(P, Machine::unit_test());
  ref.run(rank_body);
  EXPECT_EQ(c_rerun, c_out);
  EXPECT_EQ(ref.aggregate_stats().peak_bytes, cl.aggregate_stats().peak_bytes);
}

/// Runs hand-built schedule `s` (packed here) on a 1-rank cluster with A
/// and C bound; returns the cluster's zero-filled bytes.
i64 run_packed(Schedule& s, const std::vector<double>& a,
               std::vector<double>& c, i64* peak = nullptr) {
  s.pack();
  Cluster cl(1, Machine::unit_test());
  cl.run([&](Comm& world) {
    ScheduleIo<double> io;
    io.a = a.data();
    io.c = c.data();
    io.arena_bytes = s.arena_bytes();
    io.arena = simmpi::current_ctx()->pool->reserve(io.arena_bytes);
    run_schedule(world, s, io);
  });
  if (peak) *peak = cl.stats(0).peak_bytes;
  return cl.host_profile().pool_zeroed_bytes;
}

TEST(Memory, ArenaSlotsAreAlignedDisjointAndZeroedOnlyOnRequest) {
  // Two live slots share the arena without overlapping; only the
  // accumulator is zeroed (and counted), the other holds 0xFF (NaN) bytes
  // until written in builds without NDEBUG. A slot freed before the next
  // alloc lends it its range.
  Schedule s(sizeof(double));
  s.alloc(kCPartial, 5, /*zero=*/true);
  s.alloc(kPacked, 4);
  s.copy(kCPartial, 0, 5, kUserC, 0, 5, 1, 5);
  s.copy(kPacked, 0, 4, kUserC, 5, 4, 1, 4);
  s.free(kCPartial);
  s.alloc(kStage, 2);
  s.copy(kUserA, 0, 2, kStage, 0, 2, 1, 2);
  s.copy(kStage, 0, 2, kUserC, 9, 2, 1, 2);
  std::vector<double> a = {3.0, 4.0}, c(11, 7.0);
  i64 peak = 0;
  EXPECT_EQ(run_packed(s, a, c, &peak), 5 * 8);
  EXPECT_EQ(peak, 9 * 8);  // tracked per slot, not per arena
  std::vector<i64> offs;
  for (const Op& op : s.ops())
    if (op.kind == OpKind::kAlloc) offs.push_back(op.buf.off);
  ASSERT_EQ(offs.size(), 3u);
  for (i64 off : offs) EXPECT_EQ(off % 64, 0);
  EXPECT_GE(offs[1], 5 * 8);
  EXPECT_EQ(offs[2], offs[0]);  // first fit: kCPartial's freed range
  EXPECT_GE(s.arena_bytes(), offs[1] + 4 * 8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(c[static_cast<size_t>(i)], 0.0);
#ifndef NDEBUG
  for (int i = 5; i < 9; ++i) EXPECT_TRUE(std::isnan(c[static_cast<size_t>(i)]));
#endif
  EXPECT_EQ(c[9], 3.0);
  EXPECT_EQ(c[10], 4.0);
}

TEST(Memory, PeakTracksLiveSlotsOnly) {
  // Tracked bytes follow the alloc and free ops, not the arena: a slot
  // freed before the next alloc no longer counts.
  Schedule s(sizeof(double));
  s.alloc(kAInit, 1000);  // 8000 bytes
  s.alloc(kBInit, 500);   // peak 12000
  s.free(kBInit);
  s.alloc(kStage, 100);  // current 8800 < peak
  std::vector<double> none;
  i64 peak = 0;
  run_packed(s, none, none, &peak);
  EXPECT_EQ(peak, 12000);
  EXPECT_GE(s.arena_bytes(), 12000);
}

#ifdef __SANITIZE_ADDRESS__
TEST(Memory, ArenaOverflowIntoNextSlotIsReported) {
  // Slots share one arena, yet an overlong copy off the end of one slot
  // towards the next is still reported, as between separate heap blocks:
  // the bytes between live slots are poisoned.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto overflow = [] {
    Schedule s(sizeof(double));
    s.alloc(kAInit, 8);
    s.alloc(kBInit, 8);
    s.copy(kUserA, 0, 9, kAInit, 0, 9, 1, 9);  // one element too many
    std::vector<double> a(9, 1.0), c;
    run_packed(s, a, c);
  };
  EXPECT_DEATH(overflow(), "use-after-poison");
}
#endif

}  // namespace
}  // namespace ca3dmm
