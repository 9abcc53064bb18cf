// Persistent PGEMM engine: plan-cache hit/miss/eviction behavior, dtype
// sharing, communicator reuse (fewer splits, strictly lower virtual time),
// schedule caching and the per-rank arena with unchanged peak-memory
// accounting (Table I semantics), batched submit, and failure semantics
// under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/model.hpp"
#include "engine/engine.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"

namespace ca3dmm {
namespace {

using engine::EngineConfig;
using engine::EngineStats;
using engine::PgemmEngine;
using engine::Request;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

constexpr std::uint64_t kSeedA = 31, kSeedB = 32;

template <typename T>
Request<T> make_request(i64 m, i64 n, i64 k, const BlockLayout& a_lay,
                        const T* a, const BlockLayout& b_lay, const T* b,
                        const BlockLayout& c_lay, T* c) {
  Request<T> r;
  r.m = m;
  r.n = n;
  r.k = k;
  r.a_layout = &a_lay;
  r.a = a;
  r.b_layout = &b_lay;
  r.b = b;
  r.c_layout = &c_lay;
  r.c = c;
  return r;
}

TEST(PlanCache, HitMissEvictionCounters) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  EngineStats st;
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.plan_cache_capacity = 2;
    PgemmEngine eng(world, cfg);
    // Shapes A, B fill the cache; A again hits; C evicts B (LRU); B misses.
    eng.plan_for(24, 24, 24);  // A: miss
    eng.plan_for(32, 32, 32);  // B: miss
    eng.plan_for(24, 24, 24);  // A: hit
    eng.plan_for(40, 40, 40);  // C: miss, evicts B
    eng.plan_for(24, 24, 24);  // A: hit (still cached)
    eng.plan_for(32, 32, 32);  // B: miss again
    if (world.rank() == 0) st = eng.stats();
    EXPECT_EQ(eng.cached_plans(), 2u);
  });
  EXPECT_EQ(st.plan_misses, 4);
  EXPECT_EQ(st.plan_hits, 2);
  EXPECT_EQ(st.plan_evictions, 2);
}

TEST(PlanCache, DistinctOptionsAreDistinctEntries) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    PgemmEngine eng(world);
    Ca3dmmOptions summa;
    summa.use_summa = true;
    eng.plan_for(24, 24, 24);
    eng.plan_for(24, 24, 24, summa);
    EXPECT_EQ(eng.stats().plan_misses, 2);
    EXPECT_EQ(eng.stats().plan_hits, 0);
    EXPECT_EQ(eng.cached_plans(), 2u);
  });
}

TEST(PlanCache, FloatAndDoubleShareOnePlan) {
  // The cache key has no element type: a double request and a float request
  // of the same shape share the plan and its communicators.
  const i64 m = 24, n = 24, k = 24;
  const int P = 4;
  const BlockLayout lay = BlockLayout::col_1d(m, n, P);
  Cluster cl(P, Machine::unit_test());
  EngineStats st;
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> ad, bd;
    fill_local(lay, me, kSeedA, ad);
    fill_local(lay, me, kSeedB, bd);
    std::vector<float> af(ad.begin(), ad.end()), bf(bd.begin(), bd.end());
    std::vector<double> cd(static_cast<size_t>(lay.local_size(me)));
    std::vector<float> cf(static_cast<size_t>(lay.local_size(me)));

    PgemmEngine eng(world);
    eng.multiply(make_request<double>(m, n, k, lay, ad.data(), lay, bd.data(),
                                      lay, cd.data()));
    eng.multiply(make_request<float>(m, n, k, lay, af.data(), lay, bf.data(),
                                     lay, cf.data()));
    if (me == 0) st = eng.stats();
    // Both dtypes produced real results through the shared plan.
    for (size_t i = 0; i < cf.size(); ++i)
      EXPECT_NEAR(cf[i], static_cast<float>(cd[i]),
                  1e-3f * static_cast<float>(k));
  });
  EXPECT_EQ(st.plan_misses, 1);
  EXPECT_EQ(st.plan_hits, 1);
  EXPECT_EQ(st.requests, 2);
}

TEST(Engine, WarmRequestBuildsNoScheduleAndAcquiresNothing) {
  // A warm native-layout request runs the schedule cached in its plan entry
  // out of the engine's arena: no schedule build, no pool acquisition.
  const i64 m = 32, n = 24, k = 40;
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  std::vector<i64> warm_acquires(static_cast<size_t>(P), -1);
  const auto run = [&](int requests) {
    cl.run([&](Comm& world) {
      const int me = world.rank();
      PgemmEngine eng(world);
      const Ca3dmmPlan& plan = eng.plan_for(m, n, k);
      const BlockLayout la = plan.a_native(), lb = plan.b_native(),
                        lc = plan.c_native();
      std::vector<double> a, b;
      fill_local(la, me, kSeedA, a);
      fill_local(lb, me, kSeedB, b);
      std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
      const Request<double> req =
          make_request<double>(m, n, k, la, a.data(), lb, b.data(), lc,
                               c.data());
      eng.multiply(req);
      const simmpi::PoolStats cold = eng.stats().pool;
      for (int i = 1; i < requests; ++i) eng.multiply(req);
      const simmpi::PoolStats warm = eng.stats().pool;
      warm_acquires[static_cast<size_t>(me)] =
          warm.hits + warm.misses - cold.hits - cold.misses;
      EXPECT_EQ(warm.high_water_bytes, warm.live_bytes);  // the arena alone
    });
    return cl.host_profile().schedule_builds;
  };
  const i64 cold_builds = run(1);
  EXPECT_EQ(cold_builds, P);  // plan_for compiled one schedule per rank
  EXPECT_EQ(run(4), cold_builds);
  for (int r = 0; r < P; ++r)
    EXPECT_EQ(warm_acquires[static_cast<size_t>(r)], 0) << "rank " << r;
}

TEST(Engine, WarmCustomLayoutRequestAcquiresNothing) {
  // A request in layouts other than the plan's native ones stages every
  // conversion through the tail of the engine's block, sized when the
  // layouts bind. A warm one builds no schedule and acquires no memory, as
  // a native one does, and its peak, staging included, is predict()'s.
  const i64 m = 64, n = 48, k = 32;
  const int P = 16;
  const Machine mach = Machine::unit_test();
  costmodel::Workload w{m, n, k};
  w.custom_layout = true;
  const i64 predicted_peak =
      costmodel::predict(costmodel::Algo::kCa3dmm, w, P, mach).peak_bytes;
  for (const bool trans_a : {false, true}) {
    Cluster cl(P, mach);
    std::vector<i64> warm_acquires(static_cast<size_t>(P), -1);
    const auto run = [&](int requests) {
      cl.run([&](Comm& world) {
        const int me = world.rank();
        const BlockLayout la =
            BlockLayout::col_1d(trans_a ? k : m, trans_a ? m : k, P);
        const BlockLayout lb = BlockLayout::col_1d(k, n, P);
        const BlockLayout lc = BlockLayout::col_1d(m, n, P);
        std::vector<double> a, b;
        fill_local(la, me, kSeedA, a);
        fill_local(lb, me, kSeedB, b);
        std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
        Request<double> req = make_request<double>(m, n, k, la, a.data(), lb,
                                                   b.data(), lc, c.data());
        req.trans_a = trans_a;
        PgemmEngine eng(world);
        eng.multiply(req);
        const simmpi::PoolStats cold = eng.stats().pool;
        for (int i = 1; i < requests; ++i) eng.multiply(req);
        const simmpi::PoolStats warm = eng.stats().pool;
        warm_acquires[static_cast<size_t>(me)] =
            warm.hits + warm.misses - cold.hits - cold.misses;
      });
      return cl.host_profile().schedule_builds;
    };
    const i64 cold_builds = run(1);
    EXPECT_EQ(cold_builds, P) << "trans_a " << trans_a;
    EXPECT_EQ(run(4), cold_builds) << "trans_a " << trans_a;
    for (int r = 0; r < P; ++r)
      EXPECT_EQ(warm_acquires[static_cast<size_t>(r)], 0)
          << "trans_a " << trans_a << " rank " << r;
    EXPECT_EQ(cl.aggregate_stats().peak_bytes, predicted_peak)
        << "trans_a " << trans_a;
  }
}

TEST(Engine, PlanCommsFromAPlanCompilesNoSchedule) {
  // PlanComms::make(world, plan) reads only the split ops of the rank's
  // schedule, so it builds one without data ops and never packs it; the
  // communicators it splits are still the plan's.
  const int P = 64;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(96, 96, 96, P);
  ASSERT_GT(plan.c() * plan.grid().pk, 1);  // repl or reduce is split too
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const PlanComms pc = PlanComms::make(world, plan);
    const RankCoord co = plan.coord(world.rank());
    EXPECT_EQ(pc.active.valid(), co.active);
    if (!co.active) return;
    EXPECT_EQ(pc.active.size(), plan.active());
    EXPECT_EQ(pc.cannon.size(), plan.s() * plan.s());
    EXPECT_EQ(pc.repl.valid() ? pc.repl.size() : 1, plan.c());
    EXPECT_EQ(pc.reduce.valid() ? pc.reduce.size() : 1, plan.grid().pk);
  });
  EXPECT_EQ(cl.host_profile().schedule_builds, 0);
}

/// Runs C = op(A) op(B) for all four transpose pairs in element type T,
/// twice through `eng` and once one-shot on the engine's plan, and expects
/// the three C blocks bit-identical.
template <typename T>
void expect_engine_matches_oneshot(Comm& world, PgemmEngine& eng, i64 m,
                                   i64 n, i64 k) {
  const int me = world.rank(), P = world.size();
  for (int t = 0; t < 4; ++t) {
    const bool ta = t & 2, tb = t & 1;
    const BlockLayout la = BlockLayout::col_1d(ta ? k : m, ta ? m : k, P);
    const BlockLayout lb = BlockLayout::col_1d(tb ? n : k, tb ? k : n, P);
    const BlockLayout lc = BlockLayout::col_1d(m, n, P);
    std::vector<double> ad, bd;
    fill_local(la, me, kSeedA + t, ad);
    fill_local(lb, me, kSeedB + t, bd);
    const std::vector<T> a(ad.begin(), ad.end()), b(bd.begin(), bd.end());
    const size_t nc = static_cast<size_t>(lc.local_size(me));
    std::vector<T> c1(nc), c2(nc), ref(nc);
    Request<T> req =
        make_request<T>(m, n, k, la, a.data(), lb, b.data(), lc, c1.data());
    req.trans_a = ta;
    req.trans_b = tb;
    eng.multiply(req);
    req.c = c2.data();
    eng.multiply(req);
    ca3dmm_multiply<T>(world, eng.plan_for(m, n, k), ta, tb, la, a.data(), lb,
                       b.data(), lc, ref.data());
    EXPECT_EQ(0, std::memcmp(c1.data(), ref.data(), nc * sizeof(T)))
        << "rank " << me << " trans " << ta << tb << " esize " << sizeof(T);
    EXPECT_EQ(0, std::memcmp(c2.data(), ref.data(), nc * sizeof(T)))
        << "rank " << me << " trans " << ta << tb << " esize " << sizeof(T);
  }
}

TEST(Engine, EachTransposePairAndElementSizeGetsItsOwnSchedule) {
  // One plan, eight cached schedules: float and double differ in their
  // allgatherv byte counts, the transpose pairs in their redistributions.
  // A k-heavy shape replicates and reduces, so every collective is on the
  // path.
  const i64 m = 16, n = 12, k = 96;
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  EngineStats st;
  cl.run([&](Comm& world) {
    PgemmEngine eng(world);
    expect_engine_matches_oneshot<double>(world, eng, m, n, k);
    expect_engine_matches_oneshot<float>(world, eng, m, n, k);
    if (world.rank() == 0) st = eng.stats();
  });
  EXPECT_EQ(st.plan_misses, 1);
  EXPECT_EQ(st.requests, 16);
  // Eight engine compiles and eight one-shot compiles per rank; the warm
  // repeats compiled nothing.
  EXPECT_EQ(cl.host_profile().schedule_builds, 16 * P);
}

/// Runs `iters` same-shape multiplies one-shot, returns per-rank C copies,
/// plus per-rank (vtime, peak_bytes, comm_splits) via out-params.
struct RunResult {
  std::vector<std::vector<double>> c;  // per rank
  std::vector<double> vtime;
  std::vector<i64> peak_bytes;
  std::vector<i64> comm_splits;
};

RunResult run_oneshot(Cluster& cl, i64 m, i64 n, i64 k, int P, int iters,
                      const BlockLayout& lay) {
  RunResult res;
  res.c.resize(static_cast<size_t>(P));
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P);
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(lay, me, kSeedA, a);
    fill_local(lay, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(lay.local_size(me)));
    for (int t = 0; t < iters; ++t)
      ca3dmm_multiply<double>(world, plan, false, false, lay, a.data(), lay,
                              b.data(), lay, c.data());
    res.c[static_cast<size_t>(me)] = c;
  });
  for (int r = 0; r < P; ++r) {
    res.vtime.push_back(cl.stats(r).vtime);
    res.peak_bytes.push_back(cl.stats(r).peak_bytes);
    res.comm_splits.push_back(cl.stats(r).comm_splits);
  }
  return res;
}

RunResult run_engine(Cluster& cl, i64 m, i64 n, i64 k, int P, int iters,
                     const BlockLayout& lay, EngineStats* st_out) {
  RunResult res;
  res.c.resize(static_cast<size_t>(P));
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(lay, me, kSeedA, a);
    fill_local(lay, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(lay.local_size(me)));
    PgemmEngine eng(world);
    for (int t = 0; t < iters; ++t)
      eng.multiply(make_request<double>(m, n, k, lay, a.data(), lay, b.data(),
                                        lay, c.data()));
    if (me == 0 && st_out) *st_out = eng.stats();
    res.c[static_cast<size_t>(me)] = c;
  });
  for (int r = 0; r < P; ++r) {
    res.vtime.push_back(cl.stats(r).vtime);
    res.peak_bytes.push_back(cl.stats(r).peak_bytes);
    res.comm_splits.push_back(cl.stats(r).comm_splits);
  }
  return res;
}

TEST(EngineVsOneShot, BitIdenticalLowerVtimeSamePeakMemory) {
  // The ISSUE acceptance workload: >= 10 same-shape multiplies. The engine
  // path must (a) hit the plan cache >= 90% of the time, (b) finish in
  // strictly lower simulated time (split latency amortized), (c) report
  // exactly the one-shot per-rank peak memory (Table I semantics are not
  // disturbed by pooling), and (d) produce bit-identical C.
  const i64 m = 48, n = 48, k = 48;
  const int P = 8, iters = 10;
  const BlockLayout lay = BlockLayout::col_1d(m, n, P);
  Cluster cl(P, Machine::unit_test());

  const RunResult oneshot = run_oneshot(cl, m, n, k, P, iters, lay);
  EngineStats st;
  const RunResult eng = run_engine(cl, m, n, k, P, iters, lay, &st);

  // (a) cache behavior: 1 miss, iters-1 hits.
  EXPECT_EQ(st.plan_misses, 1);
  EXPECT_EQ(st.plan_hits, iters - 1);
  EXPECT_GE(st.plan_hit_rate(), 0.9);
  EXPECT_GT(st.splits_saved, 0);
  // One block, grown by the first request, served every later one.
  EXPECT_EQ(st.pool.misses, 1);
  EXPECT_EQ(st.pool.hits, 0);

  for (int r = 0; r < P; ++r) {
    const size_t ur = static_cast<size_t>(r);
    // (b) strictly lower simulated time on every rank.
    EXPECT_LT(eng.vtime[ur], oneshot.vtime[ur]) << "rank " << r;
    // Communicator cache: one-shot splits iters times, engine once.
    EXPECT_EQ(oneshot.comm_splits[ur], iters * eng.comm_splits[ur])
        << "rank " << r;
    // (c) identical peak tracked memory.
    EXPECT_EQ(eng.peak_bytes[ur], oneshot.peak_bytes[ur]) << "rank " << r;
    // (d) bit-identical results.
    ASSERT_EQ(eng.c[ur].size(), oneshot.c[ur].size());
    for (size_t i = 0; i < eng.c[ur].size(); ++i)
      ASSERT_EQ(eng.c[ur][i], oneshot.c[ur][i])
          << "rank " << r << " element " << i;
  }
}

TEST(EngineStats, SplitsSavedAreThePlansCacheableSplitsPerHit) {
  // Forced 1 x 2 x 2 grid on 5 ranks: s = 1, c = 2, pk = 2, rank 4 idle.
  // An active rank's plan takes four cacheable splits (active, Cannon,
  // replication, reduction), the idle rank's one (active); every hit saves
  // them all.
  const i64 m = 8, n = 12, k = 10;
  const int P = 5, iters = 3;
  const BlockLayout la = BlockLayout::col_1d(m, k, P);
  const BlockLayout lb = BlockLayout::col_1d(k, n, P);
  const BlockLayout lc = BlockLayout::col_1d(m, n, P);
  std::vector<EngineStats> st(static_cast<size_t>(P));
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(la, me, kSeedA, a);
    fill_local(lb, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
    Request<double> req =
        make_request<double>(m, n, k, la, a.data(), lb, b.data(), lc, c.data());
    req.opt.force_grid = ProcGrid{1, 2, 2};
    PgemmEngine eng(world);
    for (int t = 0; t < iters; ++t) eng.multiply(req);
    st[static_cast<size_t>(me)] = eng.stats();
  });
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(st[static_cast<size_t>(r)].plan_hits, iters - 1);
    EXPECT_EQ(st[static_cast<size_t>(r)].splits_saved,
              (iters - 1) * (r < 4 ? 4 : 1))
        << "rank " << r;
  }
}

TEST(BatchedSubmit, GroupsShapesAndMatchesSequential) {
  // An interleaved shape stream (A B A B A B ...) against a capacity-1
  // cache: sequential multiply() thrashes (every call misses), submit()
  // groups the batch so each shape misses once. Results must be
  // bit-identical and the batched run strictly faster.
  const int P = 4;
  const i64 mA = 24, mB = 32;
  const int pairs = 4;
  const BlockLayout layA = BlockLayout::col_1d(mA, mA, P);
  const BlockLayout layB = BlockLayout::col_1d(mB, mB, P);
  Cluster cl(P, Machine::unit_test());

  struct Out {
    std::vector<double> ca, cb;
  };
  std::vector<Out> seq(static_cast<size_t>(P)), bat(static_cast<size_t>(P));
  EngineStats st_seq, st_bat;

  auto body = [&](Comm& world, bool batched, std::vector<Out>& out,
                  EngineStats& st) {
    const int me = world.rank();
    std::vector<double> aa, ba, ab, bb;
    fill_local(layA, me, kSeedA, aa);
    fill_local(layA, me, kSeedB, ba);
    fill_local(layB, me, kSeedA, ab);
    fill_local(layB, me, kSeedB, bb);
    std::vector<double> ca(static_cast<size_t>(layA.local_size(me)));
    std::vector<double> cb(static_cast<size_t>(layB.local_size(me)));
    EngineConfig cfg;
    cfg.plan_cache_capacity = 1;
    PgemmEngine eng(world, cfg);
    std::vector<Request<double>> reqs;
    for (int p = 0; p < pairs; ++p) {
      reqs.push_back(make_request<double>(mA, mA, mA, layA, aa.data(), layA,
                                          ba.data(), layA, ca.data()));
      reqs.push_back(make_request<double>(mB, mB, mB, layB, ab.data(), layB,
                                          bb.data(), layB, cb.data()));
    }
    if (batched) {
      eng.submit(reqs);
    } else {
      for (const Request<double>& r : reqs) eng.multiply(r);
    }
    if (me == 0) st = eng.stats();
    out[static_cast<size_t>(me)].ca = ca;
    out[static_cast<size_t>(me)].cb = cb;
  };

  cl.run([&](Comm& w) { body(w, false, seq, st_seq); });
  std::vector<double> vt_seq;
  for (int r = 0; r < P; ++r) vt_seq.push_back(cl.stats(r).vtime);
  cl.run([&](Comm& w) { body(w, true, bat, st_bat); });

  // Sequential with capacity 1 thrashes: every request misses.
  EXPECT_EQ(st_seq.plan_misses, 2 * pairs);
  EXPECT_EQ(st_seq.plan_hits, 0);
  // Batched: grouped execution — one miss per shape.
  EXPECT_EQ(st_bat.batches, 1);
  EXPECT_EQ(st_bat.plan_misses, 2);
  EXPECT_EQ(st_bat.plan_hits, 2 * pairs - 2);
  EXPECT_EQ(st_bat.requests, 2 * pairs);

  for (int r = 0; r < P; ++r) {
    const size_t ur = static_cast<size_t>(r);
    // Strictly lower total virtual time for the batched run.
    EXPECT_LT(cl.stats(r).vtime, vt_seq[ur]) << "rank " << r;
    // Bit-identical results.
    ASSERT_EQ(bat[ur].ca.size(), seq[ur].ca.size());
    for (size_t i = 0; i < bat[ur].ca.size(); ++i)
      ASSERT_EQ(bat[ur].ca[i], seq[ur].ca[i]) << "rank " << r;
    ASSERT_EQ(bat[ur].cb.size(), seq[ur].cb.size());
    for (size_t i = 0; i < bat[ur].cb.size(); ++i)
      ASSERT_EQ(bat[ur].cb[i], seq[ur].cb[i]) << "rank " << r;
  }
}

TEST(EngineCorrectness, MatchesReferenceAcrossShapesAndOptions) {
  // A mixed batch (shapes, transposes, SUMMA option) through one engine,
  // validated against the serial reference.
  const int P = 8;
  struct Shape {
    i64 m, n, k;
    bool ta, tb;
    bool summa;
  };
  const std::vector<Shape> shapes = {
      {32, 24, 40, false, false, false},
      {24, 32, 40, true, false, false},
      {40, 40, 16, false, true, true},
  };
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int me = world.rank();
    PgemmEngine eng(world);
    for (const Shape& s : shapes) {
      const BlockLayout a_lay = BlockLayout::col_1d(s.ta ? s.k : s.m,
                                                    s.ta ? s.m : s.k, P);
      const BlockLayout b_lay = BlockLayout::col_1d(s.tb ? s.n : s.k,
                                                    s.tb ? s.k : s.n, P);
      const BlockLayout c_lay = BlockLayout::col_1d(s.m, s.n, P);
      std::vector<double> a, b;
      fill_local(a_lay, me, kSeedA, a);
      fill_local(b_lay, me, kSeedB, b);
      std::vector<double> c(static_cast<size_t>(c_lay.local_size(me)));
      Request<double> req = make_request<double>(
          s.m, s.n, s.k, a_lay, a.data(), b_lay, b.data(), c_lay, c.data());
      req.trans_a = s.ta;
      req.trans_b = s.tb;
      req.opt.use_summa = s.summa;
      eng.multiply(req);

      Matrix<double> am(s.ta ? s.k : s.m, s.ta ? s.m : s.k);
      Matrix<double> bm(s.tb ? s.n : s.k, s.tb ? s.k : s.n);
      am.fill_random(kSeedA);
      bm.fill_random(kSeedB);
      Matrix<double> c_ref(s.m, s.n);
      gemm_ref<double>(s.ta, s.tb, s.m, s.n, s.k, 1.0, am.data(), bm.data(),
                       c_ref.data());
      i64 pos = 0;
      for (const Rect& r : c_lay.rects_of(me))
        for (i64 i = r.r.lo; i < r.r.hi; ++i)
          for (i64 j = r.c.lo; j < r.c.hi; ++j)
            ASSERT_NEAR(c[static_cast<size_t>(pos++)], c_ref(i, j),
                        1e-11 * (s.k + 1));
    }
  });
}

TEST(EngineFaults, KilledRankMidBatchRaisesOneAggregatedError) {
  // PR-1 semantics through the engine: a rank killed by fault injection in
  // the middle of a batch unwinds every peer cooperatively and Cluster::run
  // raises a single ca3dmm::Error naming the failed rank.
  const i64 m = 24;
  const int P = 4;
  const BlockLayout lay = BlockLayout::col_1d(m, m, P);
  Cluster cl(P, Machine::unit_test());
  simmpi::FaultPlan fp;
  fp.kills.push_back({.rank = 1, .at_op = 40});  // inside a later request
  cl.set_fault_plan(fp);
  try {
    cl.run([&](Comm& world) {
      const int me = world.rank();
      std::vector<double> a, b;
      fill_local(lay, me, kSeedA, a);
      fill_local(lay, me, kSeedB, b);
      std::vector<double> c(static_cast<size_t>(lay.local_size(me)));
      PgemmEngine eng(world);
      std::vector<Request<double>> reqs(
          10, make_request<double>(m, m, m, lay, a.data(), lay, b.data(), lay,
                                   c.data()));
      eng.submit(reqs);
    });
    FAIL() << "run() completed despite the injected kill";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fault injection"), std::string::npos) << msg;
  }
  cl.set_fault_plan(simmpi::FaultPlan{});
}

TEST(EngineConcurrency, MultiplyFromHelperThreadRaisesError) {
  // An engine is a per-rank object called from its rank's code. A multiply
  // issued from an OS thread the rank spawned has no rank behind it and
  // must raise Error instead of driving collectives; the owning rank then
  // multiplies normally.
  const i64 m = 16;
  const int P = 2;
  const BlockLayout lay = BlockLayout::col_1d(m, m, P);
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(lay, me, kSeedA, a);
    fill_local(lay, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(lay.local_size(me)));
    PgemmEngine eng(world);
    const Request<double> req = make_request<double>(
        m, m, m, lay, a.data(), lay, b.data(), lay, c.data());
    std::string msg;
    std::thread helper([&] {
      try {
        eng.multiply(req);
      } catch (const Error& e) {
        msg = e.what();
      }
    });
    helper.join();
    EXPECT_NE(msg.find("off its owning rank"), std::string::npos) << msg;
    EXPECT_EQ(eng.stats().requests, 0);
    eng.multiply(req);
    EXPECT_EQ(eng.stats().requests, 1);
  });
}

}  // namespace
}  // namespace ca3dmm
