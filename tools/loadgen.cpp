// loadgen: deterministic multi-tenant service smoke driver.
//
//   loadgen [tenants] [requests_each] [seed] [out.json]
//
// Generates the canonical tenant set (service/loadgen.hpp: the four shape
// mixes cycled, weights doubling every 4th tenant) on the cost model's
// exactness domain (P = 16 over 4 simulated nodes), serves it through the
// full ServiceDriver path (journal + shrink-and-replan wrapping, no faults
// injected), and writes the per-tenant SLA report as JSON.
//
// Exit status gates the run for CI:
//   - zero OOM: the engine pool's high-water footprint stays under the
//     configured per-rank budget on every rank;
//   - zero cross-tenant error leakage: no tenant records a failure in a
//     fault-free run;
//   - exactness: every tenant's p99 predicted-vs-executed latency drift
//     stays within the CI drift gate's 1e-6 rtol.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "costmodel/admission.hpp"
#include "service/driver.hpp"
#include "service/loadgen.hpp"

namespace {

using namespace ca3dmm;
using service::GeneratedLoad;
using service::LoadSpec;
using service::ServiceConfig;
using service::ServiceReport;
using service::TenantMetrics;
using simmpi::Machine;

constexpr int kRanks = 16;
constexpr double kDriftRtol = 1e-6;

Machine exact_machine() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  return mach;
}

}  // namespace

int main(int argc, char** argv) {
  const int tenants = argc > 1 ? std::atoi(argv[1]) : 8;
  const int requests_each = argc > 2 ? std::atoi(argv[2]) : 6;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2026;
  const char* out_path = argc > 4 ? argv[4] : "BENCH_service.json";
  if (tenants < 1 || requests_each < 1) {
    std::fprintf(stderr,
                 "usage: %s [tenants>=1] [requests_each>=1] [seed] "
                 "[out.json]\n",
                 argv[0]);
    return 2;
  }

  LoadSpec spec;
  spec.seed = seed;
  spec.tenants = service::default_profiles(tenants, requests_each);
  const GeneratedLoad load = service::generate_load(spec, kRanks);

  // Per-rank memory budget: twice the largest single-request predicted
  // peak, room for the engine block's alignment and first-fit slack.
  costmodel::CostOracle oracle(kRanks, exact_machine());
  i64 max_peak = 0;
  for (const service::ServiceRequest& r : load.requests) {
    costmodel::Workload w{r.m, r.n, r.k};
    w.force_grid = r.opt.force_grid;
    max_peak = std::max(
        max_peak, oracle.quote(costmodel::Algo::kCa3dmm, w).peak_bytes);
  }

  ServiceConfig cfg;
  cfg.tenants = load.tenants;
  cfg.memory_budget_bytes = 2 * max_peak;

  service::ServiceDriver driver(kRanks, exact_machine(), cfg);
  const ServiceReport rep = driver.run(load.requests);

  bool ok = true;
  const auto gate = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::printf("SMOKE GATE FAILED: %s\n", what);
      ok = false;
    }
  };

  std::printf("loadgen: %d tenants x %d requests, seed %llu, P=%d\n", tenants,
              requests_each, (unsigned long long)seed, kRanks);
  for (const TenantMetrics& m : rep.tenants) {
    std::printf(
        "  %-16s w=%-4g done=%-3lld rej=%-3lld p50=%.3fms p99=%.3fms "
        "p99drift=%.2e\n",
        m.name.c_str(), m.weight, (long long)m.completed,
        (long long)(m.rejected_queue + m.rejected_mem + m.rejected_vtime),
        m.p50_latency_s * 1e3, m.p99_latency_s * 1e3, m.p99_drift);
    gate(m.completed > 0, "tenant starved (zero completions)");
    gate(m.failed == 0, "cross-tenant error leakage (failure without fault)");
    gate(m.p99_drift <= kDriftRtol && m.p50_drift <= kDriftRtol,
         "p99 drift outside the 1e-6 rtol gate");
  }
  gate(rep.pool_high_water_bytes <= cfg.memory_budget_bytes,
       "pool footprint exceeded the memory budget (OOM)");
  gate(driver.recovery().attempts_used() == 1,
       "fault-free run took more than one attempt");
  std::printf("pool high water %lld B <= budget %lld B; vtime end %.3f ms; "
              "engine plan hit rate %.0f%%\n",
              (long long)rep.pool_high_water_bytes,
              (long long)cfg.memory_budget_bytes, rep.vtime_end * 1e3,
              rep.engine.plan_hit_rate() * 100);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 2;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"service_smoke\",\n  \"ranks\": %d,\n"
               "  \"tenants\": %d,\n  \"requests_each\": %d,\n"
               "  \"seed\": %llu,\n  \"drift_rtol_gate\": %.1e,\n",
               kRanks, tenants, requests_each, (unsigned long long)seed,
               kDriftRtol);
  std::fprintf(f, "  \"tenant_metrics\": [\n");
  for (size_t t = 0; t < rep.tenants.size(); ++t) {
    const TenantMetrics& m = rep.tenants[t];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"weight\": %g, \"completed\": %lld, "
        "\"failed\": %lld,\n     \"rejected_queue\": %lld, \"rejected_mem\": "
        "%lld, \"rejected_vtime\": %lld,\n     \"served_predicted_s\": %.9f, "
        "\"served_executed_s\": %.9f,\n     \"p50_latency_s\": %.9f, "
        "\"p99_latency_s\": %.9f,\n     \"p50_drift\": %.3e, \"p99_drift\": "
        "%.3e, \"max_drift\": %.3e}%s\n",
        m.name.c_str(), m.weight, (long long)m.completed, (long long)m.failed,
        (long long)m.rejected_queue, (long long)m.rejected_mem,
        (long long)m.rejected_vtime, m.served_predicted_s, m.served_executed_s,
        m.p50_latency_s, m.p99_latency_s, m.p50_drift, m.p99_drift,
        m.max_drift, t + 1 < rep.tenants.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"pool\": {\"budget_bytes\": %lld, "
               "\"high_water_bytes\": %lld},\n"
               "  \"engine\": {\"requests\": %lld, \"plan_hits\": %lld, "
               "\"plan_misses\": %lld},\n"
               "  \"vtime_end_s\": %.9f,\n  \"gates_ok\": %s\n}\n",
               (long long)cfg.memory_budget_bytes,
               (long long)rep.pool_high_water_bytes,
               (long long)rep.engine.requests, (long long)rep.engine.plan_hits,
               (long long)rep.engine.plan_misses, rep.vtime_end,
               ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}
