// Virtual-time tracing: export determinism, zero-perturbation when enabled,
// Chrome trace-event structure, per-phase aggregation, critical-path
// extraction, and the prediction-drift gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/ca3dmm.hpp"
#include "costmodel/drift.hpp"
#include "engine/engine.hpp"
#include "simmpi/trace.hpp"

namespace ca3dmm {
namespace {

using costmodel::Algo;
using costmodel::Workload;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using simmpi::Phase;
using simmpi::TraceKind;
using simmpi::TraceRecord;

Machine small_nodes() {
  Machine m = Machine::phoenix_mpi();
  m.ranks_per_node = 4;
  m.cores_per_node = 4;
  return m;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs one CA3DMM multiply, returns the final per-rank virtual clocks and
/// (via `c_out`) rank 0's C block.
std::vector<double> run_traced(const Workload& w, int P, const Machine& mach,
                               bool trace, std::vector<double>* c_out) {
  Cluster cl(P, mach);
  cl.set_trace(trace);
  costmodel::run_workload(Algo::kCa3dmm, w, cl);
  std::vector<double> clocks;
  for (int r = 0; r < P; ++r) clocks.push_back(cl.stats(r).vtime);
  if (c_out) {
    // Second run capturing rank 0's C block, with the same trace setting.
    Cluster cl2(P, mach);
    cl2.set_trace(trace);
    const Ca3dmmPlan plan = Ca3dmmPlan::make(w.m, w.n, w.k, P);
    const BlockLayout lc = plan.c_native();
    std::vector<std::vector<double>> cs(static_cast<size_t>(P));
    cl2.run([&](Comm& world) {
      const Ca3dmmPlan p2 = Ca3dmmPlan::make(w.m, w.n, w.k, P);
      const BlockLayout la = p2.a_native(), lb = p2.b_native();
      std::vector<double> a(static_cast<size_t>(la.local_size(world.rank()))),
          b(static_cast<size_t>(lb.local_size(world.rank())));
      for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<double>(i % 7) - 3.0;
      for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<double>(i % 5) - 2.0;
      auto& c = cs[static_cast<size_t>(world.rank())];
      c.assign(static_cast<size_t>(lc.local_size(world.rank())), 0.0);
      ca3dmm_multiply<double>(world, p2, false, false, la, a.data(), lb,
                              b.data(), lc, c.data());
    });
    *c_out = cs[0];
  }
  return clocks;
}

// ---- determinism and zero perturbation ----

TEST(Trace, ExportIsByteIdenticalAcrossRuns) {
  const Workload w{32, 32, 64};
  const char* p1 = "trace_det_1.json";
  const char* p2 = "trace_det_2.json";
  for (const char* path : {p1, p2}) {
    Cluster cl(16, small_nodes());
    cl.set_trace(true);
    costmodel::run_workload(Algo::kCa3dmm, w, cl);
    simmpi::write_chrome_trace_file(cl, path);
  }
  const std::string t1 = slurp(p1), t2 = slurp(p2);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  std::remove(p1);
  std::remove(p2);
}

TEST(Trace, EnablingTracingLeavesVtimesAndResultBitIdentical) {
  const Workload w{37, 29, 53};  // uneven: exercises every sync path
  const int P = 8;
  std::vector<double> c_off, c_on;
  const std::vector<double> off =
      run_traced(w, P, Machine::unit_test(), false, &c_off);
  const std::vector<double> on =
      run_traced(w, P, Machine::unit_test(), true, &c_on);
  ASSERT_EQ(off.size(), on.size());
  for (size_t r = 0; r < off.size(); ++r)
    EXPECT_EQ(off[r], on[r]) << "rank " << r;  // bitwise, no tolerance
  ASSERT_EQ(c_off.size(), c_on.size());
  for (size_t i = 0; i < c_off.size(); ++i) EXPECT_EQ(c_off[i], c_on[i]);
}

TEST(Trace, DisabledTracingRecordsNothing) {
  Cluster cl(8, Machine::unit_test());
  costmodel::run_workload(Algo::kCa3dmm, {32, 32, 32}, cl);
  for (int r = 0; r < 8; ++r) EXPECT_TRUE(cl.trace(r).empty());
  EXPECT_THROW(simmpi::write_chrome_trace_file(cl, "nope.json"), Error);
  EXPECT_THROW(simmpi::aggregate_trace(cl), Error);
  EXPECT_THROW(simmpi::critical_path(cl), Error);
}

// ---- export structure ----

TEST(Trace, ChromeTraceStructure) {
  const int P = 8;
  Cluster cl(P, small_nodes());
  cl.set_trace(true);
  costmodel::Workload w(32, 32, 64);
  w.custom_layout = true;
  costmodel::run_workload(Algo::kCa3dmm, w, cl);
  const char* path = "trace_structure.json";
  simmpi::write_chrome_trace_file(cl, path);
  const std::string t = slurp(path);
  std::remove(path);
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(t.front(), '[');
  EXPECT_EQ(t[t.size() - 2], ']');  // trailing "]\n"
  // One process per node (P=8, 4 ranks/node -> nodes 0,1), one thread/rank.
  EXPECT_NE(t.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(t.find("\"name\":\"node 1\""), std::string::npos);
  for (int r = 0; r < P; ++r)
    EXPECT_NE(t.find(strprintf("\"name\":\"rank %d\"", r)), std::string::npos);
  // Complete slices with phase categories and dependency edges.
  EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(t.find("collective redistribute"), std::string::npos);
  EXPECT_NE(t.find("compute local compute"), std::string::npos);
  EXPECT_NE(t.find("\"algo\":"), std::string::npos);
  EXPECT_NE(t.find("\"dep_rank\":"), std::string::npos);
  // Balanced braces (cheap well-formedness check; Perfetto accepts the
  // format, this guards against truncation).
  i64 depth = 0;
  for (char ch : t) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, RecordsCarryScheduleAndBytes) {
  Cluster cl(16, small_nodes());
  cl.set_trace(true);
  costmodel::run_workload(Algo::kCa3dmm, {32, 32, 64}, cl);
  bool saw_coll_with_algo = false, saw_gemm = false, saw_dep = false;
  for (int r = 0; r < cl.nranks(); ++r)
    for (const TraceRecord& rec : cl.trace(r)) {
      EXPECT_GE(rec.t1, rec.t0);
      if (rec.kind == TraceKind::kCollective && rec.algo != nullptr &&
          rec.bytes_out > 0 && rec.comm_size > 1)
        saw_coll_with_algo = true;
      if (rec.kind == TraceKind::kCompute && rec.phase == Phase::kCompute)
        saw_gemm = true;
      if (rec.dep_rank >= 0) {
        EXPECT_LT(rec.dep_rank, cl.nranks());
        saw_dep = true;
      }
    }
  EXPECT_TRUE(saw_coll_with_algo);
  EXPECT_TRUE(saw_gemm);
  EXPECT_TRUE(saw_dep);
}

TEST(Trace, MarkersRecordLibraryEvents) {
  Cluster cl(8, Machine::unit_test());
  cl.set_trace(true);
  // Custom layouts force real pack/unpack work in redistribution.
  costmodel::Workload w(32, 32, 32);
  w.custom_layout = true;
  costmodel::run_workload(Algo::kCa3dmm, w, cl);
  bool saw_pack = false, saw_unpack = false;
  for (int r = 0; r < cl.nranks(); ++r)
    for (const TraceRecord& rec : cl.trace(r)) {
      if (rec.kind != TraceKind::kMarker) continue;
      if (std::string(rec.name) == "redistribute:pack") saw_pack = true;
      if (std::string(rec.name) == "redistribute:unpack") saw_unpack = true;
    }
  EXPECT_TRUE(saw_pack);
  EXPECT_TRUE(saw_unpack);
}

TEST(Trace, EngineCacheEventsAreMarked) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.set_trace(true);
  cl.run([&](Comm& world) {
    engine::PgemmEngine eng(world);
    eng.plan_for(24, 24, 24);  // miss + build
    eng.plan_for(24, 24, 24);  // hit
  });
  int hits = 0, misses = 0, builds = 0;
  for (int r = 0; r < P; ++r)
    for (const TraceRecord& rec : cl.trace(r)) {
      if (rec.kind != TraceKind::kMarker) continue;
      const std::string n = rec.name;
      if (n == "engine:plan hit") ++hits;
      if (n == "engine:plan miss") ++misses;
      if (n == "engine:plan build") ++builds;
    }
  EXPECT_EQ(hits, P);
  EXPECT_EQ(misses, P);
  EXPECT_EQ(builds, P);
}

// ---- aggregation and critical path ----

TEST(Trace, AggregateMatchesRankStats) {
  Cluster cl(16, small_nodes());
  cl.set_trace(true);
  costmodel::run_workload(Algo::kCa3dmm, {32, 32, 64}, cl);
  const simmpi::TraceAggregate agg = simmpi::aggregate_trace(cl);
  const simmpi::RankStats stats = cl.aggregate_stats();
  EXPECT_EQ(agg.nranks, 16);
  EXPECT_EQ(agg.vtime_max, stats.vtime);
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const simmpi::PhaseAggregate& a = agg.phases[static_cast<size_t>(p)];
    EXPECT_EQ(a.vtime_max, stats.phase_s[p]);
    EXPECT_EQ(a.bytes, stats.bytes_sent_s[p]);
    EXPECT_EQ(a.inter_bytes, stats.inter_bytes_s[p]);
    EXPECT_GE(a.skew_max, 0.0);
    EXPECT_GE(a.skew_avg, 0.0);
  }
  const std::string table = simmpi::format_aggregate_table(agg);
  EXPECT_NE(table.find("local compute"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(Trace, CriticalPathIsContiguousAndSpansTheRun) {
  Cluster cl(16, small_nodes());
  cl.set_trace(true);
  costmodel::run_workload(Algo::kCa3dmm, {37, 29, 53}, cl);
  const simmpi::RankStats stats = cl.aggregate_stats();
  const auto path = simmpi::critical_path(cl);
  ASSERT_FALSE(path.empty());
  // Ends at the overall makespan, starts at (or before any op of) t=0.
  EXPECT_NEAR(path.back().t1, stats.vtime, 1e-12);
  EXPECT_NEAR(path.front().t0, 0.0, 1e-12);
  for (size_t i = 0; i < path.size(); ++i) {
    EXPECT_LE(path[i].t0, path[i].t1);
    if (i > 0) {
      // Contiguous in virtual time: each segment begins where the previous
      // ended (hops switch ranks at exactly the dependency timestamp).
      EXPECT_NEAR(path[i].t0, path[i - 1].t1, 1e-12);
    }
  }
  EXPECT_FALSE(
      simmpi::format_critical_path(path).find("rank") == std::string::npos);
}

// ---- drift gate ----

TEST(Trace, DriftGatePassesOnEvenWorkloads) {
  // The evenly divisible configurations test_costmodel.cpp pins at
  // 1e-9 rtol; the gate's tight default tolerance must hold on all of them.
  struct Cfg {
    Workload w;
    int P;
    Machine mach;
  };
  const Cfg cfgs[] = {
      {Workload{32, 32, 32}, 8, Machine::unit_test()},
      {Workload{32, 32, 32}, 8, small_nodes()},
      {Workload{32, 32, 64}, 16, Machine::unit_test()},
      {Workload{32, 64, 16}, 8, small_nodes()},
  };
  for (const Cfg& c : cfgs) {
    Cluster cl(c.P, c.mach);
    const costmodel::DriftReport rep =
        costmodel::check_drift(Algo::kCa3dmm, c.w, cl);
    EXPECT_TRUE(rep.ok()) << rep.table();
    EXPECT_NE(rep.table().find("ok"), std::string::npos);
  }
}

TEST(Trace, DriftGateFlagsMispredictions) {
  const Workload w{32, 32, 64};
  Cluster cl(16, Machine::unit_test());
  const simmpi::RankStats executed =
      costmodel::run_workload(Algo::kCa3dmm, w, cl);
  costmodel::Prediction pred =
      costmodel::predict(Algo::kCa3dmm, w, 16, cl.machine());
  // A model that lost 10% of the compute phase must be flagged.
  pred.phase_s[static_cast<int>(Phase::kCompute)] *= 0.9;
  pred.t_total *= 0.999;
  const costmodel::DriftReport rep = costmodel::drift_report(pred, executed);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.table().find("FAIL"), std::string::npos);
  // Peak-memory mismatches are hard failures too.
  costmodel::Prediction pred2 =
      costmodel::predict(Algo::kCa3dmm, w, 16, cl.machine());
  pred2.peak_bytes += 8;
  EXPECT_FALSE(costmodel::drift_report(pred2, executed).ok());
}

TEST(Trace, DriftGateExactOnUnevenShapes) {
  // The model replays the executed schedule with the engine's
  // synchronization rules, so uneven shapes with idle ranks are gated per
  // phase at the same default tolerance as even ones.
  Cluster cl(8, Machine::unit_test());
  const costmodel::DriftReport rep =
      costmodel::check_drift(Algo::kCa3dmm, {37, 29, 53}, cl);
  EXPECT_TRUE(rep.ok()) << rep.table();
}

TEST(Trace, DriftGateHoldsOnForcedSummaGrid) {
  // run_workload executes the forced SUMMA grid predict() prices (an idle
  // rank included), so the join compares one grid, not two.
  Workload w{36, 40, 28};
  w.force_grid = ProcGrid{2, 3, 1};
  Cluster cl(7, small_nodes());
  const costmodel::DriftReport rep = costmodel::check_drift(Algo::kSumma, w, cl);
  EXPECT_TRUE(rep.ok()) << rep.table();
}

}  // namespace
}  // namespace ca3dmm
