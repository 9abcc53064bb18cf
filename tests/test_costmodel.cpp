// Validation of the analytic cost model against the executable engine.
//
// This is the test that justifies evaluating the paper-scale benchmarks with
// the model. predict() replays every rank's schedule — the op lists the
// executors run — with simmpi's synchronization rules, so for every
// algorithm and every shape its per-phase virtual time, total time and
// per-rank peak memory must match what the engine measures on the same
// machine model: per phase and in total within rtol 1e-6 (atol 1e-12), peak
// bytes exactly, and (cold runs) per-phase inter-node bytes and the compute
// load balance within rtol 1e-6. Named cases pin known configurations; a
// seeded property sweep covers uneven shapes, idle ranks, forced grids,
// custom layouts, ABFT, overlap, aggregation, the warm engine path and
// heterogeneous topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ca3dmm.hpp"
#include "core/hetero.hpp"
#include "layout/redistribute.hpp"
#include "costmodel/admission.hpp"
#include "costmodel/drift.hpp"
#include "engine/engine.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {
namespace {

using costmodel::Algo;
using costmodel::DriftReport;
using costmodel::Prediction;
using costmodel::Workload;
using simmpi::Cluster;
using simmpi::ClusterSpec;
using simmpi::Comm;
using simmpi::Machine;
using simmpi::RankStats;
using simmpi::Topology;

constexpr int kPhases = static_cast<int>(simmpi::Phase::kCount);

Machine small_nodes() {
  // Phoenix-like parameters but 4 ranks per node, so P=16 spans 4 nodes and
  // the intra/inter link mixing paths are exercised.
  Machine m = Machine::phoenix_mpi();
  m.ranks_per_node = 4;
  m.cores_per_node = 4;
  return m;
}

std::string describe(Algo algo, const Workload& w, int P) {
  std::string s = strprintf(
      "%s m=%lld n=%lld k=%lld P=%d custom=%d min_kblk=%lld abft=%d "
      "overlap=%d warm=%d",
      costmodel::algo_name(algo), static_cast<long long>(w.m),
      static_cast<long long>(w.n), static_cast<long long>(w.k), P,
      w.custom_layout, static_cast<long long>(w.min_kblk), w.abft, w.overlap,
      w.warm_comms);
  if (w.force_grid)
    s += strprintf(" grid=%dx%dx%d", w.force_grid->pm, w.force_grid->pn,
                   w.force_grid->pk);
  if (!w.k_weights.empty()) s += " k_weights";
  return s;
}

/// The persistent engine's hit path, executed: PgemmEngine::plan_for splits
/// the communicators, a barrier so every rank enters at the same clock, then
/// one warm multiply, measured as per-rank deltas — what a warm_comms
/// prediction describes.
RankStats run_warm(Algo algo, const Workload& w, Cluster& cl) {
  const int P = cl.nranks();
  const costmodel::Program pg = costmodel::program_of(algo, w, P);
  const Ca3dmmOptions& opt = std::get<Ca3dmmPlan>(pg.plan).options();
  const BlockLayout& la = pg.layouts[kUserLayoutA];
  const BlockLayout& lb = pg.layouts[kUserLayoutB];
  const BlockLayout& lc = pg.layouts[kUserLayoutC];
  std::vector<RankStats> delta(static_cast<size_t>(P));
  cl.run([&](Comm& world) {
    const int me = world.rank();
    // Virtual time does not depend on the values multiplied.
    std::vector<double> a(static_cast<size_t>(la.local_size(me)));
    std::vector<double> b(static_cast<size_t>(lb.local_size(me)));
    std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
    engine::PgemmEngine eng(world);
    eng.plan_for(w.m, w.n, w.k, opt);
    world.barrier();
    const RankStats& stats = simmpi::current_ctx()->stats;
    const RankStats before = stats;
    const double t0 = world.now();
    eng.multiply(engine::Request<double>{w.m, w.n, w.k, false, false, &la,
                                         a.data(), &lb, b.data(), &lc,
                                         c.data(), opt});
    RankStats& d = delta[static_cast<size_t>(me)];
    d.vtime = world.now() - t0;
    for (int p = 0; p < kPhases; ++p)
      d.phase_s[p] = stats.phase_s[p] - before.phase_s[p];
    d.peak_bytes = stats.peak_bytes;  // nothing tracked is live before
  });
  RankStats agg;
  for (const RankStats& d : delta) {
    agg.vtime = std::max(agg.vtime, d.vtime);
    for (int p = 0; p < kPhases; ++p)
      agg.phase_s[p] = std::max(agg.phase_s[p], d.phase_s[p]);
    agg.peak_bytes = std::max(agg.peak_bytes, d.peak_bytes);
  }
  return agg;
}

/// Executes `w` on `cl` (the warm engine path when w.warm_comms) and holds
/// the prediction to it: every phase, the total and the per-rank flops
/// within rtol 1e-6, peak bytes exactly; on cold runs also the per-phase
/// inter-node bytes and the compute load balance within rtol 1e-6.
void expect_exact(Algo algo, const Workload& w, Cluster& cl) {
  const RankStats executed = w.warm_comms
                                 ? run_warm(algo, w, cl)
                                 : costmodel::run_workload(algo, w, cl);
  const Prediction pred =
      costmodel::predict(algo, w, cl.nranks(), cl.topology());
  const DriftReport rep = costmodel::drift_report(pred, executed);
  EXPECT_TRUE(rep.ok()) << describe(algo, w, cl.nranks()) << "\n"
                        << rep.table();
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-6 * std::max(std::abs(a), std::abs(b));
  };
  if (!w.warm_comms) {  // run_warm's deltas carry only time and peak
    for (int p = 0; p < kPhases; ++p)
      EXPECT_PRED2(near, pred.inter_bytes_s[p], executed.inter_bytes_s[p])
          << describe(algo, w, cl.nranks()) << " inter-node bytes of "
          << simmpi::phase_name(static_cast<simmpi::Phase>(p));
    EXPECT_PRED2(near, pred.load_balance, executed.load_balance)
        << describe(algo, w, cl.nranks());
  }
  // The multiply is the only compute either path runs.
  double flops = 0;
  for (int r = 0; r < cl.nranks(); ++r)
    flops = std::max(flops, cl.stats(r).flops);
  EXPECT_NEAR(pred.flops_per_rank, flops, 1e-6 * flops)
      << describe(algo, w, cl.nranks());
}

void expect_exact(Algo algo, const Workload& w, int P, const Machine& mach) {
  Cluster cl(P, mach);
  expect_exact(algo, w, cl);
}

// ---- evenly divisible, fully utilized configurations ----

TEST(CostModel, Ca3dmmEvenExact) {
  expect_exact(Algo::kCa3dmm, {32, 32, 32}, 8, Machine::unit_test());
  expect_exact(Algo::kCa3dmm, {32, 32, 64}, 16, Machine::unit_test());
  expect_exact(Algo::kCa3dmm, {32, 32, 32}, 8, small_nodes());
}

TEST(CostModel, Ca3dmmReplicatedEvenExact) {
  Workload w{32, 64, 16};
  expect_exact(Algo::kCa3dmm, w, 8, Machine::unit_test());  // Example 1
  expect_exact(Algo::kCa3dmm, w, 8, small_nodes());
}

TEST(CostModel, Ca3dmmSummaEvenExact) {
  expect_exact(Algo::kCa3dmmSumma, {32, 32, 64}, 16, Machine::unit_test());
}

TEST(CostModel, CosmaEvenExact) {
  expect_exact(Algo::kCosma, {32, 32, 64}, 16, Machine::unit_test());
  expect_exact(Algo::kCosma, {32, 32, 64}, 16, small_nodes());
}

TEST(CostModel, CarmaEvenExact) {
  expect_exact(Algo::kCarma, {32, 32, 64}, 8, Machine::unit_test());
}

TEST(CostModel, SummaEvenExact) {
  expect_exact(Algo::kSumma, {32, 32, 32}, 4, Machine::unit_test());
  expect_exact(Algo::kSumma, {32, 32, 32}, 4, small_nodes());
}

TEST(CostModel, CtfEvenExact) {
  expect_exact(Algo::kCtf, {32, 32, 32}, 8, Machine::unit_test());
}

TEST(CostModel, P25dEvenExact) {
  Workload w{32, 32, 32};
  w.force_grid = ProcGrid{2, 2, 2};  // q=2, c=2 for the 2.5D plan
  expect_exact(Algo::kP25d, w, 8, Machine::unit_test());
  expect_exact(Algo::kP25d, w, 8, small_nodes());
  Workload w2{48, 48, 48};
  w2.force_grid = ProcGrid{4, 4, 1};  // pure Cannon layer
  expect_exact(Algo::kP25d, w2, 16, Machine::unit_test());
}

TEST(CostModel, CustomLayoutExact) {
  Workload w{32, 32, 64};
  w.custom_layout = true;
  expect_exact(Algo::kCa3dmm, w, 16, Machine::unit_test());
  expect_exact(Algo::kCosma, w, 16, Machine::unit_test());
}

TEST(CostModel, GpuMachineExact) {
  Machine gpu = Machine::phoenix_gpu();
  expect_exact(Algo::kCa3dmm, {64, 64, 64}, 8, gpu);
  expect_exact(Algo::kCosma, {64, 64, 64}, 8, gpu);
}

TEST(CostModel, MultiShiftAggregationExact) {
  Workload w{32, 32, 64};
  w.min_kblk = 64;  // forces aggregation in 4-way k groups
  expect_exact(Algo::kCa3dmm, w, 16, Machine::unit_test());
  w.min_kblk = 0;  // one GEMM per shift
  expect_exact(Algo::kCa3dmm, w, 16, Machine::unit_test());
}

TEST(CostModel, ForcedGridExact) {
  Workload w{32, 32, 32};
  w.force_grid = ProcGrid{4, 2, 2};
  expect_exact(Algo::kCa3dmm, w, 16, Machine::unit_test());
  w.force_grid = ProcGrid{2, 4, 2};
  expect_exact(Algo::kCa3dmm, w, 16, Machine::unit_test());
  Workload s{36, 40, 28};
  s.force_grid = ProcGrid{2, 3, 1};  // SUMMA honors its forced grid too
  expect_exact(Algo::kSumma, s, 7, Machine::unit_test());
}

// ---- uneven blocks and idle ranks: collectives synchronize at their
// latest member, which the replay applies exactly ----

TEST(CostModel, UnevenExact) {
  expect_exact(Algo::kCa3dmm, {37, 29, 53}, 8, Machine::unit_test());
  expect_exact(Algo::kCosma, {37, 29, 53}, 8, Machine::unit_test());
  expect_exact(Algo::kSumma, {37, 29, 53}, 6, Machine::unit_test());
  expect_exact(Algo::kP25d, {37, 29, 53}, 8, Machine::unit_test());
}

TEST(CostModel, IdleRanksExact) {
  expect_exact(Algo::kCa3dmm, {32, 32, 64}, 17, Machine::unit_test());
}

TEST(CostModel, NamedUnevenCasesExact) {
  // Shapes where ranks wait on slower peers in another phase than their own
  // work: an idle rank and uneven blocks at 96^3/P=17 (redistribution),
  // 2.5D layers with uneven step counts at 1000x70x333/P=24
  // (redistribution and reduction), thin uneven k at 301x299x17/P=32
  // (shifts and total), uneven blocks everywhere at 97x101x89/P=16.
  const Machine mach = Machine::phoenix_mpi();
  expect_exact(Algo::kCa3dmm, {96, 96, 96}, 17, mach);
  expect_exact(Algo::kP25d, {1000, 70, 333}, 24, mach);
  expect_exact(Algo::kCa3dmm, {301, 299, 17}, 32, mach);
  expect_exact(Algo::kCa3dmm, {97, 101, 89}, 16, mach);
}

// ---- seeded property sweep ----

/// A random forced grid for `algo` on at most P ranks that does not
/// outgrow the matrix, or none.
std::optional<ProcGrid> random_grid(Algo algo, const Workload& w, int P,
                                    Rng& rng) {
  std::optional<ProcGrid> g;
  switch (algo) {
    case Algo::kCa3dmm:
    case Algo::kCa3dmmSumma: {
      // Cannon constraint (7): the larger of pm, pn is a multiple of the
      // smaller.
      const int s = static_cast<int>(rng.uniform(1, 4));
      const int c = static_cast<int>(rng.uniform(1, 3));
      const bool wide = rng.uniform(0, 1) == 1;
      g = ProcGrid{wide ? s : s * c, wide ? s * c : s,
                   static_cast<int>(rng.uniform(1, 3))};
      break;
    }
    case Algo::kCosma:
      g = ProcGrid{static_cast<int>(rng.uniform(1, 4)),
                   static_cast<int>(rng.uniform(1, 4)),
                   static_cast<int>(rng.uniform(1, 4))};
      break;
    case Algo::kSumma:
      g = ProcGrid{static_cast<int>(rng.uniform(1, 6)),
                   static_cast<int>(rng.uniform(1, 6)), 1};
      break;
    case Algo::kP25d: {  // (q, c) travel as (pm, pk)
      const int q = static_cast<int>(rng.uniform(1, 4));
      g = ProcGrid{q, q, static_cast<int>(rng.uniform(1, 3))};
      break;
    }
    default:
      break;  // CARMA and CTF choose their own grids
  }
  if (!g || g->active() > P || g->pm > w.m || g->pn > w.n || g->pk > w.k)
    return std::nullopt;
  return g;
}

TEST(CostModel, SeededSweepIsExact) {
  const auto start = std::chrono::steady_clock::now();
  const Algo algos[] = {Algo::kCa3dmm, Algo::kCa3dmmSumma, Algo::kCosma,
                        Algo::kCarma,  Algo::kCtf,         Algo::kSumma,
                        Algo::kP25d};
  const Machine machines[] = {Machine::unit_test(), small_nodes()};
  const std::int64_t kblks[] = {0, 64, 192};
  Rng rng(20221116);
  int cases = 0;
  for (int it = 0; it < 210; ++it) {
    const Algo algo = algos[it % 7];
    const bool ca3dmm = algo == Algo::kCa3dmm || algo == Algo::kCa3dmmSumma;
    Workload w{rng.uniform(1, 300), rng.uniform(1, 300), rng.uniform(1, 300)};
    if (rng.uniform(0, 3) == 0) w.k = rng.uniform(1, 12);  // k < P
    int P = static_cast<int>(rng.uniform(1, 32));
    if (algo == Algo::kCarma) P = 1 << rng.uniform(0, 5);
    w.custom_layout = rng.uniform(0, 1) == 1;
    w.abft = rng.uniform(0, 1) == 1;
    w.overlap = rng.uniform(0, 2) != 0;
    w.min_kblk = kblks[rng.uniform(0, 2)];
    if (rng.uniform(0, 2) == 0) w.force_grid = random_grid(algo, w, P, rng);
    w.warm_comms = ca3dmm && rng.uniform(0, 3) == 0;
    SCOPED_TRACE(describe(algo, w, P));
    Cluster cl(P, machines[rng.uniform(0, 1)]);
    expect_exact(algo, w, cl);
    ++cases;
  }

  // Two heterogeneous topologies for CA3DMM, plain and rate-weighted.
  Machine cpu = Machine::unit_test();
  cpu.ranks_per_node = 2;
  Machine gpu = cpu;
  gpu.use_gpu = true;
  gpu.gpu_flops = gpu.gpu_peak_flops = 4e9;
  gpu.pcie_bandwidth = 1e15;
  gpu.gpu_gemm_overhead = 0.0;
  Machine fast = small_nodes();
  fast.flops_per_core *= 3;
  const Topology topos[] = {
      Topology::make({ClusterSpec{"cpu", cpu, 8}, ClusterSpec{"gpu", gpu, 8}},
                     simmpi::InterClusterLink{5e-6, 5e8}),
      Topology::make({ClusterSpec{"slow", small_nodes(), 12},
                      ClusterSpec{"fast", fast, 8}})};
  for (int it = 0; it < 24; ++it) {
    const Topology& topo = topos[it % 2];
    const Algo algo = it % 3 == 0 ? Algo::kCa3dmmSumma : Algo::kCa3dmm;
    Workload w{rng.uniform(8, 200), rng.uniform(8, 200), rng.uniform(8, 200)};
    if (it % 4 < 2)
      w = Workload(w.m, w.n, w.k,
                   make_hetero_options(topo, w.m, w.n, w.k, topo.nranks()));
    w.abft = rng.uniform(0, 1) == 1;
    w.warm_comms = rng.uniform(0, 2) == 0;
    SCOPED_TRACE(describe(algo, w, topo.nranks()) + " hetero");
    Cluster cl(topo);
    expect_exact(algo, w, cl);
    ++cases;
  }
  EXPECT_GE(cases, 200);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 30.0);
}

// ---- qualitative sanity of the model at paper scale ----

TEST(CostModel, PaperScaleEvaluatesQuickly) {
  const Machine mach = Machine::phoenix_mpi();
  Workload w{50000, 50000, 50000};
  const Prediction p = costmodel::predict(Algo::kCa3dmm, w, 3072, mach);
  EXPECT_GT(p.t_total, 0.1);   // ~seconds, like the paper
  EXPECT_LT(p.t_total, 60.0);
  EXPECT_GT(p.pct_peak(w.m, w.n, w.k, 3072, mach), 5.0);
  EXPECT_LT(p.pct_peak(w.m, w.n, w.k, 3072, mach), 100.0);
}

TEST(CostModel, CommunicationLowerBoundRespected) {
  // The modelled comm volume of CA3DMM should be near the paper's Q (eq. 9)
  // for a cubic problem: check the plan-level value instead of timing.
  const Ca3dmmPlan plan = Ca3dmmPlan::make(49152, 49152, 49152, 4096);
  EXPECT_LT(plan.comm_volume_per_rank(), 1.35 * plan.volume_lower_bound());
}

// ---- one program, many collective configs ----

/// predict_each of `w` over every (allgather, reduce-scatter) pair the
/// tuner enumerates (and the unset default), overlap on and off, against
/// one predict() per config: equal bit for bit.
void expect_predict_each_matches(Algo algo, Workload w, int P,
                                 const Topology& topo) {
  const simmpi::CollAlgo algos[] = {
      simmpi::CollAlgo::kAuto, simmpi::CollAlgo::kPaperButterfly,
      simmpi::CollAlgo::kRing, simmpi::CollAlgo::kRecursive,
      simmpi::CollAlgo::kHierarchical};
  std::vector<std::optional<simmpi::CollectiveConfig>> colls{std::nullopt};
  for (const simmpi::CollAlgo ag : algos)
    for (const simmpi::CollAlgo rs : algos) {
      simmpi::CollectiveConfig c = simmpi::CollectiveConfig::tuned();
      c.allgather = ag;
      c.reduce_scatter = rs;
      colls.push_back(c);
    }
  for (const bool ov : {true, false}) {
    w.overlap = ov;
    const std::vector<Prediction> each =
        costmodel::predict_each(algo, w, P, topo, colls);
    ASSERT_EQ(each.size(), colls.size());
    std::vector<double> totals;
    for (size_t i = 0; i < colls.size(); ++i) {
      Workload one = w;
      one.coll = colls[i];
      SCOPED_TRACE(describe(algo, one, P) + strprintf(" config %zu", i));
      const Prediction p = costmodel::predict(algo, one, P, topo);
      EXPECT_EQ(each[i].t_total, p.t_total);
      for (int ph = 0; ph < kPhases; ++ph) {
        EXPECT_EQ(each[i].phase_s[ph], p.phase_s[ph]);
        EXPECT_EQ(each[i].inter_bytes_s[ph], p.inter_bytes_s[ph]);
      }
      EXPECT_EQ(each[i].peak_bytes, p.peak_bytes);
      EXPECT_EQ(each[i].load_balance, p.load_balance);
      totals.push_back(p.t_total);
    }
    // The configs must price differently, or replaying one program per
    // config would not be tested.
    EXPECT_NE(*std::min_element(totals.begin(), totals.end()),
              *std::max_element(totals.begin(), totals.end()))
        << describe(algo, w, P);
  }
}

TEST(CostModel, PredictEachMatchesPredict) {
  const Machine mach = small_nodes();
  const int P = 32;
  const Topology homo = Topology::homogeneous(P, mach);
  // Even, replicated (c = 2) and reduced (pk = 4).
  Workload even{192, 192, 192};
  even.force_grid = ProcGrid{2, 4, 4};
  expect_predict_each_matches(Algo::kCa3dmm, even, P, homo);
  // Uneven blocks, the solver's grid and a forced one with idle ranks.
  expect_predict_each_matches(Algo::kCa3dmm, {100, 70, 130}, P, homo);
  Workload uneven{100, 70, 130};
  uneven.force_grid = ProcGrid{4, 2, 3};
  expect_predict_each_matches(Algo::kCa3dmm, uneven, P, homo);
  // The persistent engine's hit path.
  Workload warm = even;
  warm.warm_comms = true;
  expect_predict_each_matches(Algo::kCa3dmm, warm, P, homo);
  // A heterogeneous topology, rate-weighted.
  Machine fast = small_nodes();
  fast.flops_per_core *= 3;
  const Topology hetero =
      Topology::make({ClusterSpec{"slow", small_nodes(), 16},
                      ClusterSpec{"fast", fast, 16}},
                     simmpi::InterClusterLink{5e-6, 5e8});
  expect_predict_each_matches(
      Algo::kCa3dmm,
      Workload(160, 96, 200, make_hetero_options(hetero, 160, 96, 200, P)), P,
      hetero);
}

TEST(Drift, OperandsSliceMatchesFillLocal) {
  // Every rank's slice of the global operands equals its fill_local
  // buffer: native layouts of an uneven plan with idle ranks, the 1-D
  // column layouts and an uneven row split.
  const i64 m = 100, n = 70, k = 130;
  const int P = 31;
  const costmodel::Operands ops(m, n, k);
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P);
  ASSERT_LT(plan.active(), P);
  const auto expect_slices = [&](const BlockLayout& la,
                                 const BlockLayout& lb) {
    std::vector<double> got, want;
    for (int r = 0; r < P; ++r) {
      costmodel::slice_local(la, r, ops.a, got);
      fill_local(la, r, 1, want);
      EXPECT_EQ(got, want) << "A, rank " << r;
      costmodel::slice_local(lb, r, ops.b, got);
      fill_local(lb, r, 2, want);
      EXPECT_EQ(got, want) << "B, rank " << r;
    }
  };
  expect_slices(plan.a_native(), plan.b_native());
  expect_slices(BlockLayout::col_1d(m, k, P), BlockLayout::col_1d(k, n, P));
  expect_slices(BlockLayout::row_1d(m, k, P), BlockLayout::row_1d(k, n, P));
}

// ---- identity conversions: native layouts in and out ----

/// One CA3DMM multiply under `plan` with user layouts la/lb/lc, on one
/// fiber worker (so host counters are deterministic).
struct LayoutRun {
  i64 comm_locks = 0;             ///< rendezvous-lock acquisitions
  double redist_bytes_sent = 0;   ///< summed over ranks
  std::vector<double> c;          ///< C gathered into global row-major order
};

LayoutRun run_layouts(const Ca3dmmPlan& plan, const BlockLayout& la,
                      const BlockLayout& lb, const BlockLayout& lc) {
  const int P = plan.nranks();
  std::vector<std::vector<double>> cs(static_cast<size_t>(P));
  Cluster cl(P, small_nodes());
  cl.set_fiber_workers(1);
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(la, me, 1, a);
    fill_local(lb, me, 2, b);
    std::vector<double>& c = cs[static_cast<size_t>(me)];
    c.resize(static_cast<size_t>(lc.local_size(me)));
    ca3dmm_multiply<double>(world, plan, false, false, la, a.data(), lb,
                            b.data(), lc, c.data());
  });
  LayoutRun out;
  out.comm_locks =
      cl.host_profile().lock(simmpi::LockClass::kComm).acquired;
  out.c.resize(static_cast<size_t>(plan.m() * plan.n()));
  for (int r = 0; r < P; ++r) {
    out.redist_bytes_sent += cl.stats(r).bytes_sent(simmpi::Phase::kRedistribute);
    i64 pos = 0;
    for (const Rect& rc : lc.rects_of(r))
      for (i64 i = rc.r.lo; i < rc.r.hi; ++i)
        for (i64 j = rc.c.lo; j < rc.c.hi; ++j)
          out.c[static_cast<size_t>(i * plan.n() + j)] =
              cs[static_cast<size_t>(r)][static_cast<size_t>(pos++)];
  }
  return out;
}

/// Rendezvous-lock acquisitions one world alltoallv adds to a run on P ranks.
i64 locks_per_conversion(int P) {
  const BlockLayout row = BlockLayout::row_1d(24, 24, P);
  const BlockLayout col = BlockLayout::col_1d(24, 24, P);
  const auto locks = [&](bool convert) {
    Cluster cl(P, small_nodes());
    cl.set_fiber_workers(1);
    cl.run([&](Comm& c) {
      if (!convert) return;
      std::vector<double> in(static_cast<size_t>(row.local_size(c.rank())));
      std::vector<double> out(static_cast<size_t>(col.local_size(c.rank())));
      redistribute<double>(c, row, in.data(), col, out.data());
    });
    return cl.host_profile().lock(simmpi::LockClass::kComm).acquired;
  };
  return locks(true) - locks(false);
}

TEST(IdentityConversion, NativeLayoutsSkipTheThreeWorldRendezvous) {
  const int P = 12;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(96, 80, 112, P);
  const BlockLayout ca = BlockLayout::col_1d(96, 112, P);
  const BlockLayout cb = BlockLayout::col_1d(112, 80, P);
  const BlockLayout cc = BlockLayout::col_1d(96, 80, P);
  ASSERT_FALSE(is_identity(ca, plan.a_native(), false));
  ASSERT_FALSE(is_identity(cb, plan.b_native(), false));
  ASSERT_FALSE(is_identity(plan.c_native(), cc, false));
  const LayoutRun native =
      run_layouts(plan, plan.a_native(), plan.b_native(), plan.c_native());
  const LayoutRun custom = run_layouts(plan, ca, cb, cc);
  const i64 per_conversion = locks_per_conversion(P);
  ASSERT_GT(per_conversion, 0);
  EXPECT_EQ(custom.comm_locks - native.comm_locks, 3 * per_conversion);
  EXPECT_EQ(native.redist_bytes_sent, 0);
  // The local copies move C exactly as the alltoallv does: bit for bit.
  EXPECT_EQ(native.c, custom.c);
}

TEST(IdentityConversion, OnlyTheCustomOperandConverts) {
  const int P = 12;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(96, 80, 112, P);
  const BlockLayout cb = BlockLayout::col_1d(112, 80, P);
  ASSERT_FALSE(is_identity(cb, plan.b_native(), false));
  const LayoutRun native =
      run_layouts(plan, plan.a_native(), plan.b_native(), plan.c_native());
  const LayoutRun mixed =
      run_layouts(plan, plan.a_native(), cb, plan.c_native());
  EXPECT_EQ(mixed.comm_locks - native.comm_locks,
            locks_per_conversion(P));
  const RedistVolume v =
      redistribution_volume(cb, plan.b_native(), false, sizeof(double));
  double b_bytes = 0;
  for (const i64 sent : v.send_bytes) b_bytes += static_cast<double>(sent);
  EXPECT_GT(b_bytes, 0);
  EXPECT_EQ(mixed.redist_bytes_sent, b_bytes);
  EXPECT_EQ(mixed.c, native.c);
}

TEST(IdentityConversion, ExecutorAndPredictChargeTheSame) {
  // Native layouts: each identity conversion is one local scan of the
  // rank's bytes on both sides, and stages no buffer.
  const Machine mach = small_nodes();
  const Workload w{96, 80, 112};
  const int P = 16;
  for (const Algo algo : {Algo::kCa3dmm, Algo::kCa3dmmSumma, Algo::kCosma,
                          Algo::kCarma, Algo::kCtf, Algo::kSumma,
                          Algo::kP25d}) {
    SCOPED_TRACE(describe(algo, w, P));
    Cluster cl(P, mach);
    costmodel::run_workload(algo, w, cl);
    const Prediction pred = costmodel::predict(algo, w, P, mach);
    const simmpi::Phase redist = simmpi::Phase::kRedistribute;
    double exec_redist = 0;
    i64 exec_peak = 0;
    for (int r = 0; r < P; ++r) {
      exec_redist = std::max(exec_redist, cl.stats(r).phase(redist));
      exec_peak = std::max(exec_peak, cl.stats(r).peak_bytes);
    }
    EXPECT_NEAR(pred.phase(redist), exec_redist, 1e-12 * exec_redist);
    EXPECT_EQ(pred.peak_bytes, exec_peak);
    if (algo != Algo::kCa3dmm) continue;
    // CA3DMM's three conversions are all local: A, B and C, once each.
    const costmodel::Program pg = costmodel::program_of(algo, w, P);
    double want = 0;
    for (int r = 0; r < P; ++r) {
      const i64 elems = pg.layouts[kNativeA].local_size(r) +
                        pg.layouts[kNativeB].local_size(r) +
                        pg.layouts[kNativeC].local_size(r);
      want = std::max(want, static_cast<double>(elems) * 8 /
                                mach.intra_rank_bandwidth());
    }
    EXPECT_NEAR(exec_redist, want, 1e-12 * want);
  }
}

// ---- A Workload is its options plus a shape; the CostOracle's memo key ----

TEST(WorkloadOptions, EveryOptionReachesThePlan) {
  // Every Ca3dmmOptions field off its default: program_of must build the
  // plan on exactly these options under both CA3DMM engines, with only
  // use_summa taken from the Algo.
  const int P = 8;
  Workload w(40, 48, 56);
  w.grid.max_memory_elems = 1 << 20;
  w.min_kblk = 16;
  w.force_grid = ProcGrid{2, 2, 2};
  w.coll = simmpi::CollectiveConfig::tuned();
  w.abft = true;
  w.overlap = false;
  w.k_weights = {1.0, 3.0};
  const auto plan_options = [&](Algo algo, const Workload& x) {
    return std::get<Ca3dmmPlan>(costmodel::program_of(algo, x, P).plan)
        .options();
  };
  Workload summa = w;
  summa.use_summa = true;
  // A default use_summa runs either engine, and the Algo sets it.
  EXPECT_TRUE(plan_options(Algo::kCa3dmm, w) == w);
  EXPECT_TRUE(plan_options(Algo::kCa3dmmSumma, w) == summa);
  EXPECT_TRUE(plan_options(Algo::kCa3dmmSumma, summa) == summa);
  // use_summa = true names CA3DMM-S, so running it as CA3DMM raises.
  EXPECT_THROW(costmodel::program_of(Algo::kCa3dmm, summa, P), Error);
  EXPECT_THROW(costmodel::predict(Algo::kCa3dmm, summa, P,
                                  Machine::unit_test()),
               Error);

  // The grid options reach the solver: a per-rank memory budget moves the
  // grid, and the model — so the service's admission too — plans the grid
  // the executor runs, not the unconstrained one.
  const i64 d = 2048;
  const int Pb = 64;
  Ca3dmmOptions opt;
  opt.grid.max_memory_elems = 500000;
  const ProcGrid executed = Ca3dmmPlan::make(d, d, d, Pb, opt).grid();
  ASSERT_FALSE(executed == find_grid(d, d, d, Pb))
      << "the budget must move the grid for this test to mean anything";
  const costmodel::Program pg =
      costmodel::program_of(Algo::kCa3dmm, Workload(d, d, d, opt), Pb);
  EXPECT_TRUE(std::get<Ca3dmmPlan>(pg.plan).grid() == executed);
}

TEST(CostOracle, KeysOnAlgoAndTheWholeWorkload) {
  const i64 d = 2048;
  const int P = 64;
  costmodel::CostOracle oracle(P, Machine::unit_test());
  const Workload plain(d, d, d);
  Workload budget = plain;
  budget.grid.max_memory_elems = 500000;

  // Two quotes that differ only in the grid options are two evaluations,
  // each on its own grid.
  const ProcGrid g_plain = oracle.quote(Algo::kCa3dmm, plain).grid;
  const ProcGrid g_budget = oracle.quote(Algo::kCa3dmm, budget).grid;
  EXPECT_EQ(oracle.evaluations(), 2);
  EXPECT_FALSE(g_plain == g_budget);
  EXPECT_TRUE(g_budget == Ca3dmmPlan::make(d, d, d, P, budget).grid());

  // warm_comms is not part of the key: a quote carries both paths.
  Workload warm = plain;
  warm.warm_comms = true;
  oracle.quote(Algo::kCa3dmm, warm);
  EXPECT_EQ(oracle.evaluations(), 2);
  // The algorithm is.
  oracle.quote(Algo::kCa3dmmSumma, plain);
  EXPECT_EQ(oracle.evaluations(), 3);
  // So is a tuned config: the same shape under another grid, schedule and
  // overlap setting is priced afresh, and memoized from then on.
  Workload tuned = plain;
  tuned.force_grid = find_grid_candidates(d, d, d, P, 2).back();
  tuned.coll = simmpi::CollectiveConfig::tuned();
  tuned.overlap = false;
  oracle.quote(Algo::kCa3dmm, tuned);
  oracle.quote(Algo::kCa3dmm, tuned);
  EXPECT_EQ(oracle.evaluations(), 4);
  EXPECT_EQ(oracle.lookups(), 6);
}

}  // namespace
}  // namespace ca3dmm
