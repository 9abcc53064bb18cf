// Multi-tenant service benchmark: prices what fairness, quotas, and
// backpressure cost — and proves they hold — on an executed overload.
//
// Two executed scenarios on the cost model's exactness domain (P = 16 over
// 4 simulated nodes, the fig5 drift-gate machine), all deterministic
// virtual time:
//
//   1. WFQ shares under overload — four tenants with weights (default
//      1:1:2:4) flood the service at t = 0 with identically shaped work.
//      Over the window where every tenant stays backlogged, each tenant's
//      served virtual time must land within 5% of its weight share.
//   2. Mixed overload with quotas — the four loadgen shape mixes at once,
//      with a flood tenant capped by a short queue, a memory-quota tenant,
//      and a token-bucket tenant. Gates: no tenant's outstanding predicted
//      peak ever exceeds its quota, shedding produces rejections (never
//      engine aborts — zero failures, zero plan invalidations), the
//      engine pool's high-water footprint stays under the configured
//      budget (zero OOM), and every tenant's p50/p99 predicted-vs-executed
//      drift stays inside the 1e-6 rtol CI gate.
//
// Emits BENCH_service.json; any gate failure exits nonzero so CI rejects
// the regression. Tenant count / weights / quotas can be overridden with
// --tenants / --weights / --quota-mb (bench_common.hpp).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "costmodel/admission.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm::bench {
namespace {

using costmodel::Algo;
using costmodel::CostOracle;
using costmodel::Workload;
using service::GeneratedLoad;
using service::LoadSpec;
using service::PgemmService;
using service::ServiceConfig;
using service::ServiceReport;
using service::ServiceRequest;
using service::ShapeMix;
using service::TenantProfile;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

constexpr double kShareTolerance = 0.05;  ///< WFQ share gate, relative
constexpr double kDriftRtol = 1e-6;       ///< same rtol as the CI drift gate

bool g_gate_failed = false;

void fail_gate(const char* what) {
  std::printf("SERVICE GATE FAILED: %s\n", what);
  g_gate_failed = true;
}

/// The fig5 executed-drift machine: P = 16 as 4 nodes x 4 ranks.
Machine exact_machine() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  return mach;
}

constexpr int kRanks = 16;

/// Runs the load through a PgemmService on a fresh cluster; every rank
/// computes the identical report, rank 0's copy is returned.
ServiceReport run_service(const ServiceConfig& cfg,
                          const std::vector<ServiceRequest>& load) {
  ServiceReport report;
  Cluster cl(kRanks, exact_machine());
  cl.run([&](Comm& world) {
    PgemmService svc(world, cfg);
    ServiceReport r = svc.serve(load);
    if (world.rank() == 0) report = r;
  });
  return report;
}

/// Weights for `n` tenants: --weights if given (cycled), else 1,1,2,4,...
std::vector<double> scenario_weights(int n) {
  const ServiceFlags& flags = bench_service_flags();
  std::vector<double> w(static_cast<size_t>(n), 1.0);
  const double defaults[] = {1, 1, 2, 4};
  for (int t = 0; t < n; ++t)
    w[static_cast<size_t>(t)] =
        flags.weights.empty()
            ? defaults[t % 4]
            : flags.weights[static_cast<size_t>(t) % flags.weights.size()];
  return w;
}

// ---------------------------------------------------------------------------
// Part 1: WFQ shares under overload.
// ---------------------------------------------------------------------------

struct ShareRow {
  std::string name;
  double weight = 0, expected = 0, share = 0;
  double err() const { return std::abs(share - expected) / expected; }
};

struct WfqResult {
  std::vector<ShareRow> rows;
  double window_end_s = 0;
  i64 requests = 0;
};

WfqResult run_wfq_scenario() {
  const ServiceFlags& flags = bench_service_flags();
  const int nt = flags.tenants > 0 ? flags.tenants : 4;
  const std::vector<double> weights = scenario_weights(nt);

  // Identical (uniform-cost) work so served vtime is the clean fairness
  // signal; request counts scale with weight so all queues drain together
  // and the all-backlogged window spans nearly the whole run.
  LoadSpec spec;
  for (int t = 0; t < nt; ++t) {
    TenantProfile p;
    p.name = "tenant-" + std::to_string(t);
    p.weight = weights[static_cast<size_t>(t)];
    p.mix = ShapeMix::kIterative;
    p.requests = static_cast<int>(24 * p.weight);
    p.mean_gap_s = 0;  // everyone floods at t = 0
    spec.tenants.push_back(p);
  }
  const GeneratedLoad load = generate_load(spec, kRanks);

  ServiceConfig cfg;
  cfg.tenants = load.tenants;
  const ServiceReport rep = run_service(cfg, load.requests);

  WfqResult out;
  out.window_end_s = rep.fair_window_end_s;
  out.requests = static_cast<i64>(load.requests.size());
  double total = 0, wsum = 0;
  for (int t = 0; t < nt; ++t) {
    total += rep.fair_window_served[static_cast<size_t>(t)];
    wsum += weights[static_cast<size_t>(t)];
  }
  for (int t = 0; t < nt; ++t) {
    ShareRow row;
    row.name = cfg.tenants[static_cast<size_t>(t)].name;
    row.weight = weights[static_cast<size_t>(t)];
    row.expected = row.weight / wsum;
    row.share =
        total == 0 ? 0 : rep.fair_window_served[static_cast<size_t>(t)] / total;
    out.rows.push_back(row);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Part 2: mixed overload with quotas, backpressure, pool budget, drift.
// ---------------------------------------------------------------------------

struct OverloadResult {
  ServiceReport report;
  std::vector<std::string> tenant_names;
  i64 budget_bytes = 0;
  i64 mem_quota_bytes = 0;
};

OverloadResult run_overload_scenario() {
  const ServiceFlags& flags = bench_service_flags();
  const std::vector<double> weights = scenario_weights(4);

  LoadSpec spec;
  const ShapeMix mixes[] = {ShapeMix::kIterative, ShapeMix::kSquare,
                            ShapeMix::kTallSkinny, ShapeMix::kBatchedSmall};
  for (int t = 0; t < 4; ++t) {
    TenantProfile p;
    p.mix = mixes[t];
    p.name = service::shape_mix_name(p.mix);
    p.weight = weights[static_cast<size_t>(t)];
    p.requests = 16;
    p.mean_gap_s = 0;
    spec.tenants.push_back(p);
  }

  // Price the load up front (the same oracle the service admits with) to
  // size the quotas so each pressure mechanism actually fires.
  CostOracle oracle(kRanks, exact_machine());
  GeneratedLoad probe = generate_load(spec, kRanks);
  i64 max_peak = 0;
  double warm_iterative = 0;
  for (const ServiceRequest& r : probe.requests) {
    Workload w{r.m, r.n, r.k};
    w.force_grid = r.opt.force_grid;
    const costmodel::Quote& q = oracle.quote(Algo::kCa3dmm, w);
    max_peak = std::max(max_peak, q.peak_bytes);
    if (r.tenant == 0) warm_iterative = q.warm_s;
  }

  // The memory-quota tenant (tall-skinny) may hold ~3 requests outstanding;
  // the flood tenant (batched-small) gets a 4-deep queue; the iterative
  // tenant gets a token bucket that admits only part of its burst.
  OverloadResult out;
  out.mem_quota_bytes = flags.quota_mb > 0 ? flags.quota_mb << 20
                                           : 3 * max_peak + max_peak / 2;
  spec.tenants[2].mem_quota_bytes = out.mem_quota_bytes;
  spec.tenants[3].max_queue = 4;
  spec.tenants[0].vtime_rate = warm_iterative / 4;  // slow refill
  spec.tenants[0].vtime_burst = 10 * warm_iterative;

  const GeneratedLoad load = generate_load(spec, kRanks);
  for (const auto& tc : load.tenants) out.tenant_names.push_back(tc.name);

  ServiceConfig cfg;
  cfg.tenants = load.tenants;
  // Pool budget: double the largest single-request predicted peak — tight
  // enough that idle buffers from other shapes must be trimmed, generous
  // enough that every request fits. The high-water gate proves zero OOM.
  out.budget_bytes = 2 * max_peak;
  cfg.memory_budget_bytes = out.budget_bytes;
  out.report = run_service(cfg, load.requests);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void write_json(const WfqResult& wfq, const OverloadResult& ov) {
  const char* path = "BENCH_service.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"service\",\n  \"ranks\": %d,\n", kRanks);
  std::fprintf(f, "  \"wfq_overload\": {\n    \"requests\": %lld,\n"
               "    \"window_end_s\": %.9f,\n    \"tenants\": [\n",
               (long long)wfq.requests, wfq.window_end_s);
  for (size_t i = 0; i < wfq.rows.size(); ++i) {
    const ShareRow& r = wfq.rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"weight\": %g, \"expected_share\":"
                 " %.6f, \"served_share\": %.6f, \"rel_err\": %.6f}%s\n",
                 r.name.c_str(), r.weight, r.expected, r.share, r.err(),
                 i + 1 < wfq.rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"share_tolerance\": %.3f\n  },\n",
               kShareTolerance);

  const ServiceReport& rep = ov.report;
  std::fprintf(f, "  \"mixed_overload\": {\n    \"tenants\": [\n");
  for (size_t t = 0; t < rep.tenants.size(); ++t) {
    const service::TenantMetrics& m = rep.tenants[t];
    std::fprintf(
        f,
        "      {\"name\": \"%s\", \"weight\": %g, \"completed\": %lld, "
        "\"failed\": %lld,\n       \"rejected_queue\": %lld, "
        "\"rejected_mem\": %lld, \"rejected_vtime\": %lld,\n"
        "       \"peak_outstanding_bytes\": %lld,\n"
        "       \"p50_latency_s\": %.9f, \"p99_latency_s\": %.9f,\n"
        "       \"p50_drift\": %.3e, \"p99_drift\": %.3e, "
        "\"max_drift\": %.3e}%s\n",
        m.name.c_str(), m.weight, (long long)m.completed, (long long)m.failed,
        (long long)m.rejected_queue, (long long)m.rejected_mem,
        (long long)m.rejected_vtime, (long long)m.peak_outstanding_bytes,
        m.p50_latency_s, m.p99_latency_s, m.p50_drift, m.p99_drift,
        m.max_drift, t + 1 < rep.tenants.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n    \"pool\": {\"budget_bytes\": %lld, "
               "\"high_water_bytes\": %lld},\n",
               (long long)ov.budget_bytes, (long long)rep.pool_high_water_bytes);
  std::fprintf(f,
               "    \"engine\": {\"requests\": %lld, \"plan_hits\": %lld, "
               "\"plan_misses\": %lld, \"plan_invalidations\": %lld},\n",
               (long long)rep.engine.requests, (long long)rep.engine.plan_hits,
               (long long)rep.engine.plan_misses,
               (long long)rep.engine.plan_invalidations);
  std::fprintf(f, "    \"vtime_end_s\": %.9f\n  },\n", rep.vtime_end);
  std::fprintf(f, "  \"drift_rtol_gate\": %.1e,\n  \"gates_ok\": %s\n}\n",
               kDriftRtol, g_gate_failed ? "false" : "true");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_tables() {
  // ---- part 1: WFQ shares ----
  const WfqResult wfq = run_wfq_scenario();
  std::printf("\n=== WFQ shares under overload (P=%d, uniform work, "
              "all-backlogged window %.3f ms) ===\n",
              kRanks, wfq.window_end_s * 1e3);
  TextTable wt({"tenant", "weight", "expected", "served share", "rel err",
                "gate 5%"});
  for (const ShareRow& r : wfq.rows) {
    const bool ok = r.err() <= kShareTolerance;
    wt.add_row({r.name, strprintf("%g", r.weight),
                strprintf("%.4f", r.expected), strprintf("%.4f", r.share),
                strprintf("%.2f%%", r.err() * 100), ok ? "ok" : "FAIL"});
    if (!ok) fail_gate("WFQ share outside 5% of weight");
  }
  wt.print();

  // ---- part 2: mixed overload ----
  const OverloadResult ov = run_overload_scenario();
  const ServiceReport& rep = ov.report;
  std::printf("\n=== Mixed overload: quotas, backpressure, pool budget "
              "(P=%d) ===\n", kRanks);
  TextTable ot({"tenant", "done", "fail", "rej q", "rej mem", "rej vt",
                "p99 lat ms", "p99 drift"});
  i64 total_rejected = 0;
  for (const service::TenantMetrics& m : rep.tenants) {
    ot.add_row({m.name, strprintf("%lld", (long long)m.completed),
                strprintf("%lld", (long long)m.failed),
                strprintf("%lld", (long long)m.rejected_queue),
                strprintf("%lld", (long long)m.rejected_mem),
                strprintf("%lld", (long long)m.rejected_vtime),
                strprintf("%.3f", m.p99_latency_s * 1e3),
                strprintf("%.2e", m.p99_drift)});
    total_rejected += m.rejected_queue + m.rejected_mem + m.rejected_vtime;
    if (m.completed <= 0) fail_gate("tenant starved (zero completions)");
    if (m.failed != 0) fail_gate("engine abort leaked into a tenant");
    if (m.p99_drift > kDriftRtol || m.p50_drift > kDriftRtol)
      fail_gate("predicted-vs-executed drift outside the 1e-6 gate");
  }
  ot.print();
  // Quota safety: the admission gauge never exceeded the contract.
  for (size_t t = 0; t < rep.tenants.size(); ++t) {
    // (load.tenants quota == cfg quota; tall-skinny carries the tight one)
    if (rep.tenants[t].name == "tall-skinny" &&
        rep.tenants[t].peak_outstanding_bytes > ov.mem_quota_bytes)
      fail_gate("memory quota violated");
  }
  if (total_rejected <= 0)
    fail_gate("overload produced no backpressure rejections");
  if (rep.engine.plan_invalidations != 0)
    fail_gate("plan invalidations during load shedding");
  if (rep.pool_high_water_bytes > ov.budget_bytes)
    fail_gate("pool footprint exceeded the memory budget (OOM)");
  std::printf("pool: high water %lld B <= budget %lld B; rejections %lld; "
              "engine %lld reqs (%.0f%% plan hits)\n",
              (long long)rep.pool_high_water_bytes, (long long)ov.budget_bytes,
              (long long)total_rejected,
              (long long)rep.engine.requests,
              rep.engine.plan_hit_rate() * 100);

  write_json(wfq, ov);
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  const int rc =
      ca3dmm::bench::run_bench_main(argc, argv, ca3dmm::bench::print_tables);
  return rc != 0 ? rc : (ca3dmm::bench::g_gate_failed ? 1 : 0);
}
