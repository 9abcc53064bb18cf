// Multi-tenant PGEMM service: cost-priced admission, weighted fair
// scheduling, quotas, and backpressure on top of the persistent engine.
//
// The north-star is serving heavy PGEMM traffic from many tenants on one
// set of ranks. Everything below this layer is deterministic and priced:
// the engine executes in deterministic virtual time, and costmodel::predict
// quotes any request's latency and peak memory *before* it runs (held to
// the executed engine within 1e-6 relative by the drift gate). PgemmService
// exploits that to make every serving decision exact rather than heuristic:
//
//   admission    — each request is priced by a memoizing CostOracle
//                  (admission.hpp). Requests whose peak memory can never
//                  fit the tenant's quota are rejected permanently; ones
//                  that merely exceed the quota *now* are shed with a
//                  deterministic retry-after estimate (backpressure, never
//                  OOM).
//   quotas       — per-tenant outstanding-predicted-peak memory cap, plus a
//                  token-bucket virtual-time budget (rate + burst, in
//                  seconds of service vtime). Token debits use the
//                  predicted cost at admission and are reconciled to the
//                  executed cost at completion.
//   scheduling   — start-time weighted fair queueing over predicted vtime
//                  (wfq.hpp) with priority classes and a starvation bound.
//   backpressure — bounded per-tenant queues; a full queue rejects with
//                  retry-after instead of growing without bound.
//   memory       — the engine runs every request in one memory block per
//                  rank, grown to the largest arena plus staging tail it
//                  ran: its high-water mark is one admitted request's
//                  footprint, reported against the memory budget.
//
// Execution model: serve() runs *inside* a Cluster rank body — every rank
// runs the identical deterministic loop, so no control messages are needed.
// All decisions derive from predicted costs and shared deterministic state
// only (never rank-local pool or clock state). A request's executed virtual
// time is measured as the max over ranks of each rank's clock delta
// (allgathered — the clocks themselves need not be equal, the delta max is
// the collective's completion semantics), so every rank accounts the same
// executed latency and the per-tenant p50/p99 predicted-vs-executed SLA
// metrics are exactly reproducible.
//
// Failure isolation: a tenant's injected fault aborts the cluster run (the
// engine/cluster failure semantics); the ServiceDriver (driver.hpp) then
// shrinks, marks exactly the in-flight request failed in its journal, and
// replays. Completed requests re-enter accounting with their journaled
// metrics and are not re-executed, so one tenant's faults cost other
// tenants nothing but the recovery latency. See docs/SERVICE.md.
#pragma once

#include <string>
#include <vector>

#include "costmodel/admission.hpp"
#include "engine/engine.hpp"
#include "service/wfq.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm::service {

/// Per-tenant serving contract. Defaults are effectively "unlimited".
struct TenantConfig {
  std::string name;
  double weight = 1.0;      ///< WFQ weight (share of service vtime)
  int priority_class = 0;   ///< lower = served first (see wfq.hpp)
  /// Cap on the sum of *outstanding* predicted peak bytes (queued +
  /// running). A single request predicted above this can never be admitted.
  i64 mem_quota_bytes = i64{1} << 60;
  double vtime_rate = 1e18;   ///< token-bucket refill, vtime-seconds/second
  double vtime_burst = 1e18;  ///< token-bucket capacity, seconds
  i64 max_queue = 64;         ///< bounded queue depth (backpressure)
};

struct ServiceConfig {
  std::vector<TenantConfig> tenants;
  /// Per-rank memory budget (0 = none) that the engine block's high-water
  /// mark (ServiceReport::pool_high_water_bytes) is gated against by the
  /// service benches and tools/loadgen. Nothing idle is held to evict: the
  /// block is the largest request's arena and staging tail.
  i64 memory_budget_bytes = 0;
  /// WFQ starvation bound in service vtime seconds (<= 0 disables aging).
  double starvation_bound_s = 0;
  engine::EngineConfig engine{};
};

/// One tenant request: a CA3DMM multiply (or a batch of `batch` identical
/// small multiplies submitted together). Operands are virtual deterministic
/// matrices (matrix_entry seeds) in the plan's native layouts; ids must be
/// unique across the whole load.
struct ServiceRequest {
  int tenant = 0;
  i64 id = 0;
  double arrival_s = 0;  ///< service virtual arrival time
  i64 m = 0, n = 0, k = 0;
  int batch = 1;
  std::uint64_t seed_a = 31, seed_b = 32;
  Ca3dmmOptions opt{};
};

enum class Verdict : int {
  kCompleted = 0,
  kRejectedQueueFull,   ///< backpressure: tenant queue at max_queue
  kRejectedMemQuota,    ///< backpressure: outstanding peak over quota
  kRejectedVtimeQuota,  ///< backpressure: token bucket empty
  kRejectedTooLarge,    ///< permanent: single request exceeds mem quota
  kFailed,              ///< aborted by a fault; journaled by the driver
};

const char* verdict_name(Verdict v);

/// Outcome of one request. Plain POD so the driver's journal can replay it
/// across shrink-and-replan attempts.
struct RequestRecord {
  i64 id = 0;
  int tenant = 0;
  int verdict = 0;          ///< Verdict
  bool done = false;        ///< false = was in flight when the run aborted
  double arrival_s = 0;
  double admit_s = 0;       ///< vtime of the admission decision
  double start_s = 0;       ///< dispatch vtime (kCompleted only)
  double finish_s = 0;
  double predicted_s = 0;   ///< quote at dispatch (cache-state aware)
  double executed_s = 0;    ///< measured: max over ranks of clock delta
  double retry_after_s = 0; ///< backpressure rejects: suggested retry delay
  i64 peak_bytes = 0;       ///< predicted per-rank peak
};

struct TenantMetrics {
  std::string name;
  double weight = 0;
  i64 admitted = 0, completed = 0, failed = 0;
  i64 rejected_queue = 0, rejected_mem = 0, rejected_vtime = 0,
      rejected_too_large = 0;
  double served_predicted_s = 0;  ///< sum of dispatched predictions
  double served_executed_s = 0;   ///< sum of executed vtime
  i64 peak_outstanding_bytes = 0; ///< high-water of the memory quota gauge
  double p50_latency_s = 0, p99_latency_s = 0;  ///< finish - arrival
  /// Predicted-vs-executed relative drift percentiles over completed
  /// requests (same |e-p|/max(e,p) definition as the CI drift gate).
  double p50_drift = 0, p99_drift = 0, max_drift = 0;
};

struct ServiceReport {
  std::vector<TenantMetrics> tenants;
  std::vector<RequestRecord> records;  ///< every request, decision order
  double vtime_end = 0;
  /// Max over ranks of the engine pool's high-water footprint; the zero-OOM
  /// gate checks this against ServiceConfig::memory_budget_bytes.
  i64 pool_high_water_bytes = 0;
  /// Fair-window snapshot: per-tenant served executed vtime accumulated
  /// while EVERY tenant stayed backlogged (the interval where WFQ's
  /// proportional-share guarantee applies), and the vtime it ended.
  std::vector<double> fair_window_served;
  double fair_window_end_s = 0;
  engine::EngineStats engine;    ///< this rank's engine counters
};

/// The per-rank serving loop. Construct inside a rank body and call
/// serve(); every rank must pass identical load/journal (normal collective
/// discipline — the loop itself enforces nothing across ranks).
class PgemmService {
 public:
  PgemmService(simmpi::Comm& world, const ServiceConfig& cfg);

  PgemmService(const PgemmService&) = delete;
  PgemmService& operator=(const PgemmService&) = delete;

  /// Serves the load to completion. `journal` carries records from prior
  /// (aborted) attempts of the same load: done records are replayed into
  /// accounting without re-execution, failed ones are skipped. When
  /// `journal_out` is non-null (the driver passes it on rank 0 ONLY), every
  /// new decision is appended to it as it is made — including an
  /// in-flight (done = false) record before each dispatch — so an abort
  /// leaves an exact mark of what was lost.
  ServiceReport serve(const std::vector<ServiceRequest>& load,
                      const std::vector<RequestRecord>& journal = {},
                      std::vector<RequestRecord>* journal_out = nullptr);

  const ServiceConfig& config() const { return cfg_; }
  engine::PgemmEngine& engine() { return engine_; }

 private:
  costmodel::Workload workload_of(const ServiceRequest& r) const;
  /// Executes one admitted request batch priced by quote `q`; returns
  /// executed vtime (max over ranks of the clock delta, same on all ranks).
  double dispatch(const ServiceRequest& r, const costmodel::Quote& q,
                  double* predicted_out);

  simmpi::Comm world_;
  ServiceConfig cfg_;
  engine::PgemmEngine engine_;
  costmodel::CostOracle oracle_;
  /// This rank's operands and batch C blocks, reused across dispatches.
  std::vector<double> a_, b_;
  std::vector<std::vector<double>> cs_;
};

}  // namespace ca3dmm::service
