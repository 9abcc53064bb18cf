// Heterogeneous multi-cluster benchmark: prices what topology awareness buys.
//
// Three parts, all deterministic virtual time:
//
//   1. Weighted vs equal k split — an executed run on a two-cluster topology
//      whose clusters differ 4x in GEMM rate. The hetero-aware plan
//      (core/hetero.hpp: cluster-aligned grid + rate-proportional k slices)
//      must strictly beat the equal split's executed vtime, and its compute
//      load balance must be tighter (gates; nonzero exit on failure).
//   2. Drift gate on cross-cluster schedules — two symmetric clusters joined
//      by a slow inter-cluster link, forcing the two-level kCrossCluster
//      collectives. costmodel::predict must match the engine inside the
//      1e-6 gate (nonzero exit on failure).
//   3. Modeled speedup sweep — predicted equal-vs-weighted time across rate
//      ratios, showing where topology awareness starts to pay.
//
// Emits BENCH_hetero.json. The executed topology can be overridden with
// --topology (see bench_common.hpp), e.g. --topology mpi:8+gpu:8@5e-6,5e9;
// the vtime gate then applies only when the override is rate-heterogeneous.
#include <cstdio>

#include "bench_common.hpp"
#include "core/ca3dmm.hpp"
#include "core/hetero.hpp"
#include "costmodel/drift.hpp"

namespace ca3dmm::bench {
namespace {

using costmodel::Algo;
using costmodel::Workload;
using simmpi::Cluster;
using simmpi::ClusterSpec;
using simmpi::CollAlgo;
using simmpi::Comm;
using simmpi::InterClusterLink;
using simmpi::Machine;
using simmpi::RankStats;
using simmpi::Topology;

bool g_gate_failed = false;

/// Default executed topology: two 8-rank clusters, identical fabric, 4x
/// apart in GEMM rate. Compute-dominant rates so the k-split choice is what
/// the vtime measures.
Topology default_topology() {
  Machine slow = Machine::unit_test();
  slow.ranks_per_node = 2;
  slow.flops_per_core = 2e7;
  Machine fast = slow;
  fast.flops_per_core = 8e7;
  return Topology::make(
      {ClusterSpec{"slow", slow, 8}, ClusterSpec{"fast", fast, 8}},
      InterClusterLink{5e-6, 5e8});
}

struct SplitResult {
  i64 m = 0, n = 0, k = 0;
  int P = 0;
  ProcGrid grid{};
  std::vector<double> weights;
  double vtime_equal_s = 0, vtime_weighted_s = 0;
  double lb_equal = 0, lb_weighted = 0;
  bool rate_heterogeneous = false;
  double speedup() const { return vtime_equal_s / vtime_weighted_s; }
};

RankStats run_split(const Topology& topo, i64 m, i64 n, i64 k,
                    const Ca3dmmOptions& opt) {
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, topo.nranks(), opt);
  const BlockLayout a_nat = plan.a_native();
  const BlockLayout b_nat = plan.b_native();
  const BlockLayout c_nat = plan.c_native();
  Cluster cl(topo);
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(a_nat, me, 1, a);
    fill_local(b_nat, me, 2, b);
    std::vector<double> c(static_cast<size_t>(c_nat.local_size(me)));
    ca3dmm_multiply<double>(world, plan, false, false, a_nat, a.data(), b_nat,
                            b.data(), c_nat, c.data());
  });
  return cl.aggregate_stats();
}

SplitResult run_split_comparison(const Topology& topo) {
  SplitResult r;
  r.m = r.n = 48;
  r.k = 160;
  r.P = topo.nranks();
  const Ca3dmmOptions het = make_hetero_options(topo, r.m, r.n, r.k, r.P);
  Ca3dmmOptions hom;
  hom.force_grid = het.force_grid;  // same grid, equal k split
  r.grid = het.force_grid ? *het.force_grid
                          : Ca3dmmPlan::make(r.m, r.n, r.k, r.P, hom).grid();
  r.weights = het.k_weights;
  for (const double w : r.weights)
    if (w != r.weights.front()) r.rate_heterogeneous = true;

  const RankStats st_hom = run_split(topo, r.m, r.n, r.k, hom);
  const RankStats st_het = run_split(topo, r.m, r.n, r.k, het);
  r.vtime_equal_s = st_hom.vtime;
  r.vtime_weighted_s = st_het.vtime;
  r.lb_equal = st_hom.load_balance;
  r.lb_weighted = st_het.load_balance;
  return r;
}

struct DriftRow {
  const char* name;
  bool ok;
};

/// Cross-cluster collective drift: symmetric clusters + distinct link, so
/// the two-level schedules fire while per-rank timing stays symmetric.
std::vector<DriftRow> run_drift_gates() {
  Machine mach = Machine::unit_test();
  mach.ranks_per_node = 2;
  const Topology topo =
      Topology::make({ClusterSpec{"left", mach, 8}, ClusterSpec{"right", mach, 8}},
                     InterClusterLink{5e-5, 2e8});
  std::vector<DriftRow> rows;
  const auto gate = [&](const char* name, const Workload& w, Algo algo) {
    Cluster cl(topo);
    const costmodel::DriftReport rep = costmodel::check_drift(algo, w, cl);
    if (!rep.ok()) {
      std::printf("DRIFT GATE FAILED: %s\n%s", name, rep.table().c_str());
      g_gate_failed = true;
    }
    rows.push_back({name, rep.ok()});
  };

  Workload rs;
  rs.m = rs.n = 48;
  rs.k = 64;
  rs.force_grid = ProcGrid{2, 2, 4};
  rs.coll.emplace().reduce_scatter = CollAlgo::kCrossCluster;
  gate("xc reduce-scatter (cannon)", rs, Algo::kCa3dmm);
  gate("xc reduce-scatter (summa)", rs, Algo::kCa3dmmSumma);

  Workload ag;
  ag.m = 128;
  ag.n = 32;
  ag.k = 32;
  ag.force_grid = ProcGrid{8, 2, 1};
  ag.coll.emplace().allgather = CollAlgo::kCrossCluster;
  gate("xc allgather (cannon)", ag, Algo::kCa3dmm);

  Workload au = rs;
  au.coll = simmpi::CollectiveConfig::tuned();
  gate("auto -> cross-cluster", au, Algo::kCa3dmm);
  return rows;
}

struct SweepRow {
  double ratio;
  double t_equal_s, t_weighted_s;
  double speedup() const { return t_equal_s / t_weighted_s; }
};

/// Modeled equal-vs-weighted time as the fast cluster's rate grows.
std::vector<SweepRow> modeled_ratio_sweep() {
  std::vector<SweepRow> rows;
  for (const double ratio : {1.0, 2.0, 4.0, 8.0}) {
    Machine slow = Machine::unit_test();
    slow.ranks_per_node = 2;
    slow.flops_per_core = 2e7;
    Machine fast = slow;
    fast.flops_per_core = 2e7 * ratio;
    const Topology topo = Topology::make(
        {ClusterSpec{"slow", slow, 8}, ClusterSpec{"fast", fast, 8}},
        InterClusterLink{5e-6, 5e8});
    Workload w;
    w.m = w.n = 48;
    w.k = 160;
    w.force_grid = ProcGrid{2, 2, 4};
    SweepRow row;
    row.ratio = ratio;
    row.t_equal_s = costmodel::predict(Algo::kCa3dmm, w, 16, topo).t_total;
    w.k_weights = k_group_weights(topo, *w.force_grid);
    row.t_weighted_s = costmodel::predict(Algo::kCa3dmm, w, 16, topo).t_total;
    rows.push_back(row);
  }
  return rows;
}

void write_json(const SplitResult& sp, const std::vector<DriftRow>& drift,
                const std::vector<SweepRow>& sweep) {
  const char* path = "BENCH_hetero.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"hetero\",\n");
  std::fprintf(
      f,
      "  \"split\": {\"m\": %lld, \"n\": %lld, \"k\": %lld, \"P\": %d,\n"
      "    \"grid\": \"%s\", \"rate_heterogeneous\": %s,\n"
      "    \"vtime_equal_s\": %.9f, \"vtime_weighted_s\": %.9f,\n"
      "    \"speedup\": %.4f, \"load_balance_equal\": %.4f, "
      "\"load_balance_weighted\": %.4f},\n",
      (long long)sp.m, (long long)sp.n, (long long)sp.k, sp.P,
      grid_str(sp.grid).c_str(), sp.rate_heterogeneous ? "true" : "false",
      sp.vtime_equal_s, sp.vtime_weighted_s, sp.speedup(), sp.lb_equal,
      sp.lb_weighted);
  std::fprintf(f, "  \"drift_gates\": [\n");
  for (size_t i = 0; i < drift.size(); ++i)
    std::fprintf(f, "    {\"name\": \"%s\", \"ok\": %s}%s\n", drift[i].name,
                 drift[i].ok ? "true" : "false",
                 i + 1 < drift.size() ? "," : "");
  std::fprintf(f, "  ],\n  \"ratio_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i)
    std::fprintf(f,
                 "    {\"ratio\": %.1f, \"t_equal_s\": %.9f, "
                 "\"t_weighted_s\": %.9f, \"speedup\": %.4f}%s\n",
                 sweep[i].ratio, sweep[i].t_equal_s, sweep[i].t_weighted_s,
                 sweep[i].speedup(), i + 1 < sweep.size() ? "," : "");
  std::fprintf(f, "  ],\n  \"gates_ok\": %s\n}\n",
               g_gate_failed ? "false" : "true");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_tables() {
  const Topology topo =
      bench_topology() ? *bench_topology() : default_topology();
  const bool default_topo = !bench_topology().has_value();

  // ---- part 1: weighted vs equal k split, executed ----
  const SplitResult sp = run_split_comparison(topo);
  std::printf("\n=== Weighted vs equal k split (executed, %lldx%lldx%lld, "
              "P=%d, grid %s) ===\n",
              (long long)sp.m, (long long)sp.n, (long long)sp.k, sp.P,
              grid_str(sp.grid).c_str());
  TextTable st({"k split", "vtime ms", "load balance"});
  st.add_row({"equal", strprintf("%.4f", sp.vtime_equal_s * 1e3),
              strprintf("%.3f", sp.lb_equal)});
  st.add_row({"weighted", strprintf("%.4f", sp.vtime_weighted_s * 1e3),
              strprintf("%.3f", sp.lb_weighted)});
  st.print();
  std::printf("speedup: %.3fx\n", sp.speedup());
  if ((default_topo || sp.rate_heterogeneous) &&
      !(sp.vtime_weighted_s < sp.vtime_equal_s &&
        sp.lb_weighted < sp.lb_equal)) {
    std::printf("HETERO SPLIT GATE FAILED: weighted split must beat equal\n");
    g_gate_failed = true;
  }

  // ---- part 2: cross-cluster drift gates ----
  const std::vector<DriftRow> drift = run_drift_gates();
  std::printf("\n=== Cross-cluster collective drift gates (1e-6) ===\n");
  TextTable dt({"schedule", "gate"});
  for (const DriftRow& d : drift) dt.add_row({d.name, d.ok ? "ok" : "FAIL"});
  dt.print();

  // ---- part 3: modeled rate-ratio sweep ----
  const std::vector<SweepRow> sweep = modeled_ratio_sweep();
  std::printf("\n=== Modeled equal vs weighted split by rate ratio ===\n");
  TextTable wt({"rate ratio", "equal ms", "weighted ms", "speedup"});
  for (const SweepRow& r : sweep)
    wt.add_row({strprintf("%.0fx", r.ratio),
                strprintf("%.4f", r.t_equal_s * 1e3),
                strprintf("%.4f", r.t_weighted_s * 1e3),
                strprintf("%.3fx", r.speedup())});
  wt.print();

  write_json(sp, drift, sweep);
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  const int rc =
      ca3dmm::bench::run_bench_main(argc, argv, ca3dmm::bench::print_tables);
  return rc != 0 ? rc : (ca3dmm::bench::g_gate_failed ? 1 : 0);
}
