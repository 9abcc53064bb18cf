// Multi-tenant service layer: WFQ fairness invariants, quota and
// backpressure semantics, admission isolation (a rejected request must
// leave the engine and pool untouched), cost-model exactness of the SLA
// drift metrics, and fault isolation through the ServiceDriver journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "service/driver.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"
#include "service/wfq.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "tuner/tuner.hpp"

namespace ca3dmm {
namespace {

using service::GeneratedLoad;
using service::LoadSpec;
using service::PgemmService;
using service::ServiceConfig;
using service::ServiceDriver;
using service::ServiceReport;
using service::ServiceRequest;
using service::ShapeMix;
using service::TenantConfig;
using service::TenantProfile;
using service::Verdict;
using service::WfqScheduler;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

// ---------------------------------------------------------------------------
// WfqScheduler unit behavior (no cluster).
// ---------------------------------------------------------------------------

TEST(Wfq, EqualWeightsAlternateAndShareEvenly) {
  WfqScheduler wfq;
  wfq.add_tenant(0, 1.0);
  wfq.add_tenant(1, 1.0);
  for (int i = 0; i < 20; ++i) {
    wfq.enqueue(0, 100 + i, 1.0, 0);
    wfq.enqueue(1, 200 + i, 1.0, 0);
  }
  int count[2] = {0, 0};
  while (wfq.all_backlogged()) {
    const auto p = wfq.pick(0);
    ASSERT_TRUE(p.has_value());
    ++count[p->tenant];
    wfq.on_served(p->tenant, p->cost);
  }
  // Uniform costs, equal weights: strict alternation, so the backlogged
  // window splits dead even (up to the one item that drains a queue).
  EXPECT_LE(std::abs(count[0] - count[1]), 1);
  const double s0 = wfq.served(0), s1 = wfq.served(1);
  EXPECT_NEAR(s0 / (s0 + s1), 0.5, 0.05);
}

TEST(Wfq, DoubleWeightGetsDoubleThroughput) {
  WfqScheduler wfq;
  wfq.add_tenant(0, 1.0);
  wfq.add_tenant(1, 2.0);
  for (int i = 0; i < 16; ++i) wfq.enqueue(0, 100 + i, 1.0, 0);
  for (int i = 0; i < 32; ++i) wfq.enqueue(1, 200 + i, 1.0, 0);
  int count[2] = {0, 0};
  while (wfq.all_backlogged()) {
    const auto p = wfq.pick(0);
    ASSERT_TRUE(p.has_value());
    ++count[p->tenant];
    wfq.on_served(p->tenant, p->cost);
  }
  ASSERT_GT(count[0], 4);
  const double ratio = static_cast<double>(count[1]) / count[0];
  EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(Wfq, WeightsShapeServedVtimeWithUnevenCosts) {
  // Fairness is over served *vtime*, not item counts: tenant 1 has items
  // 4x the cost but the same weight, so it gets ~1/4 the item throughput.
  WfqScheduler wfq;
  wfq.add_tenant(0, 1.0);
  wfq.add_tenant(1, 1.0);
  for (int i = 0; i < 64; ++i) wfq.enqueue(0, 100 + i, 1.0, 0);
  for (int i = 0; i < 16; ++i) wfq.enqueue(1, 200 + i, 4.0, 0);
  double served[2] = {0, 0};
  while (wfq.all_backlogged()) {
    const auto p = wfq.pick(0);
    ASSERT_TRUE(p.has_value());
    served[p->tenant] += p->cost;
    wfq.on_served(p->tenant, p->cost);
  }
  const double share = served[0] / (served[0] + served[1]);
  EXPECT_NEAR(share, 0.5, 0.05);
}

TEST(Wfq, EqualTagsOnDifferentChainsTieToTheLowerTenant) {
  // Tenant 0 (weight 1) and tenant 1 (weight 4) queue items of one cost c:
  // tenant 0's k-th finish tag equals tenant 1's 4k-th, reached by k
  // additions of c against 4k additions of c/4. Each such tie must go to
  // tenant 0 whatever the rounding, so every round of four of tenant 1's
  // items ends right after one of tenant 0's.
  for (const double c : {1.0, 0.1, 1.0 / 3, 13.098e-6, 466.006e-6}) {
    SCOPED_TRACE(c);
    WfqScheduler wfq;
    wfq.add_tenant(0, 1.0);
    wfq.add_tenant(1, 4.0);
    for (int i = 0; i < 16; ++i) wfq.enqueue(0, 100 + i, c, 0);
    for (int i = 0; i < 64; ++i) wfq.enqueue(1, 200 + i, c, 0);
    std::string order;
    while (const auto p = wfq.pick(0)) order += p->tenant == 0 ? 'a' : 'b';
    std::string want;
    for (int k = 0; k < 16; ++k) want += "bbbab";
    EXPECT_EQ(order.substr(0, want.size()), want);
  }
}

TEST(Wfq, PriorityClassesAreStrictWithoutAging) {
  WfqScheduler wfq(/*starvation_bound_s=*/0);
  wfq.add_tenant(0, 1.0, /*priority_class=*/1);
  wfq.add_tenant(1, 1.0, /*priority_class=*/0);
  wfq.enqueue(0, 100, 1.0, 0);
  wfq.enqueue(1, 200, 1.0, 0);
  wfq.enqueue(1, 201, 1.0, 0);
  EXPECT_EQ(wfq.pick(0)->tenant, 1);
  EXPECT_EQ(wfq.pick(0)->tenant, 1);
  EXPECT_EQ(wfq.pick(0)->tenant, 0);
}

TEST(Wfq, StarvationBoundPromotesAgedItems) {
  WfqScheduler wfq(/*starvation_bound_s=*/5.0);
  wfq.add_tenant(0, 1.0, /*priority_class=*/1);  // batch class
  wfq.add_tenant(1, 1.0, /*priority_class=*/0);  // interactive class
  wfq.enqueue(0, 100, 1.0, /*now_s=*/0);
  for (int i = 0; i < 8; ++i) wfq.enqueue(1, 200 + i, 1.0, 0);
  // While the batch item is fresh, the interactive class wins...
  EXPECT_EQ(wfq.pick(4.0)->tenant, 1);
  // ...but past the bound it is promoted and competes on finish tags, where
  // its early enqueue wins against the re-chained interactive backlog.
  EXPECT_EQ(wfq.pick(6.0)->tenant, 0);
}

// ---------------------------------------------------------------------------
// Executed service behavior on a small cluster.
// ---------------------------------------------------------------------------

constexpr i64 kDim = 32;  ///< tiny uniform multiply for behavior tests

ServiceRequest tiny_request(int tenant, i64 id, double arrival = 0) {
  ServiceRequest r;
  r.tenant = tenant;
  r.id = id;
  r.arrival_s = arrival;
  r.m = r.n = r.k = kDim;
  return r;
}

ServiceReport run_on_cluster(int P, const ServiceConfig& cfg,
                             const std::vector<ServiceRequest>& load) {
  ServiceReport report;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    PgemmService svc(world, cfg);
    ServiceReport r = svc.serve(load);
    if (world.rank() == 0) report = r;
  });
  return report;
}

i64 count_verdict(const ServiceReport& rep, Verdict v) {
  return std::count_if(rep.records.begin(), rep.records.end(),
                       [v](const service::RequestRecord& r) {
                         return r.verdict == static_cast<int>(v);
                       });
}

TEST(Service, EqualWeightTenantsShareWithinFivePercent) {
  ServiceConfig cfg;
  cfg.tenants = {TenantConfig{.name = "a"}, TenantConfig{.name = "b"}};
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 24; ++i) {
    load.push_back(tiny_request(0, 100 + i));
    load.push_back(tiny_request(1, 200 + i));
  }
  const ServiceReport rep = run_on_cluster(4, cfg, load);
  ASSERT_EQ(rep.tenants[0].completed, 24);
  ASSERT_EQ(rep.tenants[1].completed, 24);
  const double total =
      rep.fair_window_served[0] + rep.fair_window_served[1];
  ASSERT_GT(total, 0);
  EXPECT_NEAR(rep.fair_window_served[0] / total, 0.5, 0.05);
  EXPECT_NEAR(rep.fair_window_served[1] / total, 0.5, 0.05);
}

TEST(Service, DoubleWeightDoublesServedShare) {
  ServiceConfig cfg;
  cfg.tenants = {TenantConfig{.name = "light", .weight = 1.0},
                 TenantConfig{.name = "heavy", .weight = 2.0}};
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 12; ++i) load.push_back(tiny_request(0, 100 + i));
  for (int i = 0; i < 24; ++i) load.push_back(tiny_request(1, 200 + i));
  const ServiceReport rep = run_on_cluster(4, cfg, load);
  const double total =
      rep.fair_window_served[0] + rep.fair_window_served[1];
  ASSERT_GT(total, 0);
  // Weight 2 of total weight 3 => 2/3 of the served vtime, within 5%.
  EXPECT_NEAR(rep.fair_window_served[1] / total, 2.0 / 3.0,
              0.05 * (2.0 / 3.0));
}

TEST(Service, MemQuotaBackpressureRejectsInsteadOfExceeding) {
  // Quota fits ~2 outstanding requests; 8 arrive at once. The overflow must
  // be rejected with a retry-after — never queued past the quota.
  ServiceConfig cfg;
  TenantConfig tc;
  tc.name = "capped";
  cfg.tenants = {tc};
  std::vector<ServiceRequest> probe_load = {tiny_request(0, 1)};
  const ServiceReport probe = run_on_cluster(4, cfg, probe_load);
  ASSERT_EQ(probe.tenants[0].completed, 1);
  const i64 peak = probe.records[0].peak_bytes;
  ASSERT_GT(peak, 0);

  cfg.tenants[0].mem_quota_bytes = 2 * peak + peak / 2;
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 8; ++i) load.push_back(tiny_request(0, 100 + i));
  const ServiceReport rep = run_on_cluster(4, cfg, load);

  EXPECT_GT(rep.tenants[0].rejected_mem, 0);
  EXPECT_EQ(rep.tenants[0].completed + rep.tenants[0].rejected_mem, 8);
  // The admission gauge never exceeded the contract.
  EXPECT_LE(rep.tenants[0].peak_outstanding_bytes,
            cfg.tenants[0].mem_quota_bytes);
  EXPECT_EQ(count_verdict(rep, Verdict::kRejectedMemQuota),
            rep.tenants[0].rejected_mem);
  for (const service::RequestRecord& r : rep.records) {
    if (r.verdict == static_cast<int>(Verdict::kRejectedMemQuota)) {
      EXPECT_GT(r.retry_after_s, 0);
    }
  }
}

TEST(Service, QueueBoundSheds) {
  ServiceConfig cfg;
  TenantConfig tc;
  tc.name = "flood";
  tc.max_queue = 3;
  cfg.tenants = {tc};
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 10; ++i) load.push_back(tiny_request(0, 100 + i));
  const ServiceReport rep = run_on_cluster(4, cfg, load);
  EXPECT_GT(rep.tenants[0].rejected_queue, 0);
  EXPECT_EQ(rep.tenants[0].completed + rep.tenants[0].rejected_queue, 10);
  EXPECT_EQ(rep.tenants[0].failed, 0);
}

TEST(Service, VtimeQuotaThrottles) {
  ServiceConfig cfg;
  TenantConfig tc;
  tc.name = "metered";
  cfg.tenants = {tc};
  std::vector<ServiceRequest> probe_load = {tiny_request(0, 1)};
  const ServiceReport probe = run_on_cluster(4, cfg, probe_load);
  const double warm = probe.records[0].predicted_s;
  ASSERT_GT(warm, 0);

  // Burst admits ~3 requests; the refill is far too slow for the rest of a
  // burst of 8 arriving at once.
  cfg.tenants[0].vtime_burst = 3.5 * warm;
  cfg.tenants[0].vtime_rate = warm * 1e-3;
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 8; ++i) load.push_back(tiny_request(0, 100 + i));
  const ServiceReport rep = run_on_cluster(4, cfg, load);
  EXPECT_GT(rep.tenants[0].rejected_vtime, 0);
  EXPECT_GT(rep.tenants[0].completed, 0);
  EXPECT_EQ(rep.tenants[0].completed + rep.tenants[0].rejected_vtime, 8);
}

TEST(Service, AdmissionRejectionLeavesEngineAndPoolUntouched) {
  // Every request is priced above the tenant's whole quota: all are shed at
  // admission, so the engine must never plan, execute, or touch the pool.
  ServiceConfig cfg;
  TenantConfig tc;
  tc.name = "starved";
  tc.mem_quota_bytes = 1;  // nothing fits
  cfg.tenants = {tc};
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 4; ++i) load.push_back(tiny_request(0, 100 + i));
  const ServiceReport rep = run_on_cluster(4, cfg, load);
  EXPECT_EQ(rep.tenants[0].rejected_too_large, 4);
  EXPECT_EQ(rep.tenants[0].completed, 0);
  EXPECT_EQ(rep.engine.requests, 0);
  EXPECT_EQ(rep.engine.plan_misses, 0);
  EXPECT_EQ(rep.engine.pool.hits + rep.engine.pool.misses, 0);
  EXPECT_EQ(rep.pool_high_water_bytes, 0);
}

TEST(Service, PoolBudgetBoundsFootprint) {
  // Mixed shapes so idle buffers of one shape press against the budget of
  // the next; the pool's high-water mark must stay under the budget.
  LoadSpec spec;
  TenantProfile p;
  p.name = "mixed";
  p.mix = ShapeMix::kTallSkinny;
  p.requests = 8;
  spec.tenants = {p};
  const GeneratedLoad load = generate_load(spec, /*nranks=*/4);

  ServiceConfig probe_cfg;
  probe_cfg.tenants = load.tenants;
  const ServiceReport probe = run_on_cluster(4, probe_cfg, load.requests);
  i64 max_peak = 0;
  for (const service::RequestRecord& r : probe.records)
    max_peak = std::max(max_peak, r.peak_bytes);
  ASSERT_GT(max_peak, 0);

  ServiceConfig cfg;
  cfg.tenants = load.tenants;
  cfg.memory_budget_bytes = 2 * max_peak;
  const ServiceReport rep = run_on_cluster(4, cfg, load.requests);
  EXPECT_EQ(rep.tenants[0].completed, 8);
  EXPECT_LE(rep.pool_high_water_bytes, cfg.memory_budget_bytes);
  // An unbudgeted run of the same load keeps more parked.
  EXPECT_GE(probe.pool_high_water_bytes, rep.pool_high_water_bytes);
}

TEST(Service, DriftStaysInsideGateOnExactnessDomain) {
  // P = 16 over 4 simulated nodes with drift-gated grids: every request's
  // predicted latency must match its executed vtime to the CI gate's 1e-6.
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  LoadSpec spec;
  spec.tenants = service::default_profiles(2, /*requests_each=*/3);
  const GeneratedLoad load = generate_load(spec, 16);
  ServiceConfig cfg;
  cfg.tenants = load.tenants;
  ServiceReport rep;
  Cluster cl(16, mach);
  cl.run([&](Comm& world) {
    PgemmService svc(world, cfg);
    ServiceReport r = svc.serve(load.requests);
    if (world.rank() == 0) rep = r;
  });
  for (const service::TenantMetrics& m : rep.tenants) {
    EXPECT_EQ(m.completed, 3);
    EXPECT_LE(m.max_drift, 1e-6) << m.name;
  }
}

TEST(Service, WeightedRequestsArePricedAsExecuted) {
  // k_weights reshape the k split across the k-task groups, so a weighted
  // request must be priced under its own weights: the quote equals the
  // executed vtime, and differs from the unweighted request's quote.
  ServiceConfig cfg;
  cfg.tenants = {TenantConfig{.name = "weighted"}};
  ServiceRequest weighted = tiny_request(0, 1);
  weighted.k = 96;
  weighted.opt.force_grid = ProcGrid{2, 4, 2};
  weighted.opt.k_weights = {3, 1};
  ServiceRequest plain = weighted;
  plain.id = 2;
  plain.opt.k_weights.clear();
  const ServiceReport rep = run_on_cluster(16, cfg, {weighted, plain});
  ASSERT_EQ(rep.records.size(), 2u);
  double quote[3] = {};
  for (const service::RequestRecord& r : rep.records) {
    ASSERT_EQ(r.verdict, static_cast<int>(Verdict::kCompleted)) << r.id;
    EXPECT_NEAR(r.predicted_s, r.executed_s, 1e-6 * r.executed_s) << r.id;
    quote[r.id] = r.predicted_s;
  }
  EXPECT_NE(quote[1], quote[2]);
}

TEST(Service, TunedRequestsArePricedAsExecuted) {
  // With a tuning DB the engine plans a tunable request under the DB's
  // config, so admission must price it under that config too: tuned plans
  // are built, and every quote still equals the executed vtime.
  const Machine mach = Machine::unit_test();
  const int P = 8;
  const i64 d = 96;
  tuner::TuningDb db;
  tuner::Tuner(mach).tune_into(db, d, d, d, P);
  ASSERT_EQ(db.size(), 1u);

  ServiceConfig cfg;
  cfg.tenants = {TenantConfig{.name = "a"}, TenantConfig{.name = "b"}};
  cfg.engine.tuning_db = &db;
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 3; ++i)
    for (int t = 0; t < 2; ++t) {
      ServiceRequest r = tiny_request(t, 100 * (t + 1) + i);
      r.m = r.n = r.k = d;
      load.push_back(r);
    }
  ServiceReport rep;
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    PgemmService svc(world, cfg);
    ServiceReport r = svc.serve(load);
    if (world.rank() == 0) rep = r;
  });
  EXPECT_GE(rep.engine.tuned_plans, 1);
  for (const service::TenantMetrics& m : rep.tenants) {
    EXPECT_EQ(m.completed, 3) << m.name;
    EXPECT_LE(m.max_drift, 1e-6) << m.name;
  }
}

// ---------------------------------------------------------------------------
// Fault isolation through the driver journal.
// ---------------------------------------------------------------------------

TEST(ServiceDriverTest, FaultCostsOnlyTheInFlightRequest) {
  ServiceConfig cfg;
  cfg.tenants = {TenantConfig{.name = "victim"},
                 TenantConfig{.name = "bystander"}};
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 6; ++i) {
    load.push_back(tiny_request(0, 100 + i));
    load.push_back(tiny_request(1, 200 + i));
  }

  ServiceDriver driver(4, Machine::unit_test(), cfg);
  simmpi::FaultPlan fp;
  fp.kills.push_back({.rank = 2, .at_op = 40});  // mid-serving
  driver.set_fault_plan(fp);
  const ServiceReport rep = driver.run(load);

  // Shrink-and-replan recovered on the survivors.
  EXPECT_EQ(driver.recovery().attempts_used(), 2);
  EXPECT_EQ(driver.recovery().final_nranks, 3);

  // Exactly the in-flight request died; everything else completed — the
  // completed requests of attempt 1 were replayed from the journal, not
  // re-executed (their records carry the original latencies).
  const i64 failed = rep.tenants[0].failed + rep.tenants[1].failed;
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(rep.tenants[0].completed + rep.tenants[1].completed,
            static_cast<i64>(load.size()) - failed);
  EXPECT_EQ(rep.tenants[0].rejected_queue + rep.tenants[1].rejected_queue, 0);

  // The journal holds the complete decision record, with one failure.
  i64 journal_failed = 0, journal_done = 0;
  for (const service::RequestRecord& r : driver.journal()) {
    EXPECT_TRUE(r.done);
    if (r.verdict == static_cast<int>(Verdict::kFailed)) ++journal_failed;
    if (r.verdict == static_cast<int>(Verdict::kCompleted)) ++journal_done;
  }
  EXPECT_EQ(journal_failed, 1);
  EXPECT_EQ(journal_done, static_cast<i64>(load.size()) - 1);
}

TEST(ServiceDriverTest, FaultFreeRunMatchesPlainService) {
  ServiceConfig cfg;
  cfg.tenants = {TenantConfig{.name = "a"}, TenantConfig{.name = "b"}};
  std::vector<ServiceRequest> load;
  for (int i = 0; i < 4; ++i) {
    load.push_back(tiny_request(0, 100 + i));
    load.push_back(tiny_request(1, 200 + i));
  }
  ServiceDriver driver(4, Machine::unit_test(), cfg);
  const ServiceReport via_driver = driver.run(load);
  const ServiceReport plain = run_on_cluster(4, cfg, load);

  EXPECT_EQ(driver.recovery().attempts_used(), 1);
  ASSERT_EQ(via_driver.records.size(), plain.records.size());
  for (size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_EQ(via_driver.records[i].id, plain.records[i].id);
    EXPECT_DOUBLE_EQ(via_driver.records[i].executed_s,
                     plain.records[i].executed_s);
    EXPECT_DOUBLE_EQ(via_driver.records[i].finish_s,
                     plain.records[i].finish_s);
  }
  EXPECT_DOUBLE_EQ(via_driver.vtime_end, plain.vtime_end);
}

}  // namespace
}  // namespace ca3dmm
