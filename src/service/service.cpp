#include "service/service.hpp"

#include <algorithm>
#include <map>

namespace ca3dmm::service {

using costmodel::Algo;
using costmodel::Quote;
using costmodel::Workload;
using engine::Request;
using simmpi::Comm;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kCompleted: return "completed";
    case Verdict::kRejectedQueueFull: return "rejected_queue_full";
    case Verdict::kRejectedMemQuota: return "rejected_mem_quota";
    case Verdict::kRejectedVtimeQuota: return "rejected_vtime_quota";
    case Verdict::kRejectedTooLarge: return "rejected_too_large";
    case Verdict::kFailed: return "failed";
  }
  return "?";
}

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Same relative-drift definition as the CI drift gate (drift.hpp).
double rel_drift(double predicted, double executed) {
  const double den = std::max(std::abs(predicted), std::abs(executed));
  return den == 0 ? 0 : std::abs(executed - predicted) / den;
}

}  // namespace

PgemmService::PgemmService(Comm& world, const ServiceConfig& cfg)
    : world_(world.dup()),
      cfg_(cfg),
      engine_(world, cfg.engine),
      oracle_(world.size(), world.machine()) {
  CA_REQUIRE(!cfg_.tenants.empty(), "PgemmService needs at least one tenant");
  for (const TenantConfig& t : cfg_.tenants) {
    CA_REQUIRE(t.weight > 0, "tenant '%s' needs weight > 0", t.name.c_str());
    CA_REQUIRE(t.max_queue >= 1, "tenant '%s' needs max_queue >= 1",
               t.name.c_str());
  }
}

Workload PgemmService::workload_of(const ServiceRequest& r) const {
  // Mirror the engine's tuning snapshot: a tunable request plans under the
  // tuned config on its cache miss, so it must be priced under it too —
  // the quote/execution exactness gate depends on the two never diverging.
  const auto tuned = engine_.tuned_for(r.m, r.n, r.k, r.opt);
  return Workload(r.m, r.n, r.k, tuned ? tuned->applied_to(r.opt) : r.opt);
}

double PgemmService::dispatch(const ServiceRequest& r, const Quote& q,
                              double* predicted_out) {
  // Price against the engine's *current* cache state: the first request of
  // a shape pays the plan + communicator splits, everyone after rides the
  // cached plan. is_cached evolves identically on every rank.
  const bool cached = engine_.is_cached(r.m, r.n, r.k, r.opt);
  *predicted_out = q.batch_s(r.batch, cached);

  const double t0 = world_.now();
  const Ca3dmmPlan& plan = engine_.plan_for(r.m, r.n, r.k, r.opt);
  // Handle copies: they share the cached plan's layouts and stay valid even
  // if the engine evicts that plan while the batch runs.
  const BlockLayout a_nat = plan.a_native();
  const BlockLayout b_nat = plan.b_native();
  const BlockLayout c_nat = plan.c_native();
  const int me = world_.rank();
  fill_local(a_nat, me, r.seed_a, a_);
  fill_local(b_nat, me, r.seed_b, b_);
  // No zero fill: redistribute_out writes every element of C.
  cs_.resize(static_cast<size_t>(r.batch));
  for (std::vector<double>& c : cs_)
    c.resize(static_cast<size_t>(c_nat.local_size(me)));
  std::vector<Request<double>> reqs;
  for (int i = 0; i < r.batch; ++i) {
    Request<double> req;
    req.m = r.m;
    req.n = r.n;
    req.k = r.k;
    req.a_layout = &a_nat;
    req.a = a_.data();
    req.b_layout = &b_nat;
    req.b = b_.data();
    req.c_layout = &c_nat;
    req.c = cs_[static_cast<size_t>(i)].data();
    req.opt = r.opt;
    reqs.push_back(req);
  }
  engine_.submit(reqs);
  const double dt = world_.now() - t0;

  // Executed vtime = max over ranks of the clock delta. Native layouts
  // convert by local copies, so ranks leave the batch at different clocks;
  // the allgather below gives every rank the same maximum. It is service
  // overhead, charged after the measurement window.
  std::vector<double> deltas(static_cast<size_t>(world_.size()));
  world_.allgather(&dt, 1, deltas.data());
  return *std::max_element(deltas.begin(), deltas.end());
}

ServiceReport PgemmService::serve(const std::vector<ServiceRequest>& load,
                                  const std::vector<RequestRecord>& journal,
                                  std::vector<RequestRecord>* journal_out) {
  const int nt = static_cast<int>(cfg_.tenants.size());

  // --- per-tenant runtime state ---
  struct TState {
    double tokens = 0;
    double last_refill = 0;
    i64 outstanding_bytes = 0;
    std::vector<double> latencies;  // finish - arrival, completed requests
    std::vector<double> drifts;     // |pred - exec| / max
  };
  std::vector<TState> ts(static_cast<size_t>(nt));
  WfqScheduler wfq(cfg_.starvation_bound_s);
  for (int t = 0; t < nt; ++t) {
    wfq.add_tenant(t, cfg_.tenants[static_cast<size_t>(t)].weight,
                   cfg_.tenants[static_cast<size_t>(t)].priority_class);
    ts[static_cast<size_t>(t)].tokens =
        cfg_.tenants[static_cast<size_t>(t)].vtime_burst;
  }

  ServiceReport rep;
  rep.tenants.resize(static_cast<size_t>(nt));
  rep.fair_window_served.assign(static_cast<size_t>(nt), 0.0);
  for (int t = 0; t < nt; ++t) {
    rep.tenants[static_cast<size_t>(t)].name =
        cfg_.tenants[static_cast<size_t>(t)].name;
    rep.tenants[static_cast<size_t>(t)].weight =
        cfg_.tenants[static_cast<size_t>(t)].weight;
  }

  // --- load validation + lookup tables ---
  std::map<i64, const ServiceRequest*> by_id;
  for (size_t i = 0; i < load.size(); ++i) {
    const ServiceRequest& r = load[i];
    CA_REQUIRE(r.tenant >= 0 && r.tenant < nt,
               "request %lld names unknown tenant %d",
               static_cast<long long>(r.id), r.tenant);
    CA_REQUIRE(r.batch >= 1, "request %lld has batch < 1",
               static_cast<long long>(r.id));
    CA_REQUIRE(by_id.emplace(r.id, &r).second, "duplicate request id %lld",
               static_cast<long long>(r.id));
    CA_REQUIRE(i == 0 || load[i - 1].arrival_s <= r.arrival_s,
               "load must be sorted by arrival time");
  }
  std::map<i64, RequestRecord> replay;  // journaled outcomes from attempts
  for (const RequestRecord& rec : journal) replay[rec.id] = rec;

  // Admission-time debits, reconciled at completion, and the quote they
  // came from, which prices the dispatch too.
  struct AdmitInfo {
    double debit = 0;
    Quote quote;
  };
  std::map<i64, AdmitInfo> admitted;

  double vnow = 0;
  size_t next = 0;
  bool window_started = false, window_open = true;

  const double total_weight = wfq.total_weight();

  auto refill = [&](int t) {
    TState& s = ts[static_cast<size_t>(t)];
    const TenantConfig& c = cfg_.tenants[static_cast<size_t>(t)];
    s.tokens = std::min(c.vtime_burst,
                        s.tokens + (vnow - s.last_refill) * c.vtime_rate);
    s.last_refill = vnow;
  };

  auto account_completed = [&](const RequestRecord& rec) {
    TenantMetrics& m = rep.tenants[static_cast<size_t>(rec.tenant)];
    TState& s = ts[static_cast<size_t>(rec.tenant)];
    ++m.admitted;
    ++m.completed;
    m.served_predicted_s += rec.predicted_s;
    m.served_executed_s += rec.executed_s;
    s.latencies.push_back(rec.finish_s - rec.arrival_s);
    s.drifts.push_back(rel_drift(rec.predicted_s, rec.executed_s));
    wfq.on_served(rec.tenant, rec.executed_s);
  };

  auto account_rejected = [&](const RequestRecord& rec) {
    TenantMetrics& m = rep.tenants[static_cast<size_t>(rec.tenant)];
    switch (static_cast<Verdict>(rec.verdict)) {
      case Verdict::kRejectedQueueFull: ++m.rejected_queue; break;
      case Verdict::kRejectedMemQuota: ++m.rejected_mem; break;
      case Verdict::kRejectedVtimeQuota: ++m.rejected_vtime; break;
      case Verdict::kRejectedTooLarge: ++m.rejected_too_large; break;
      default: break;
    }
  };

  // --- the deterministic serving loop (identical on every rank) ---
  while (next < load.size() || !wfq.empty()) {
    // Admit every arrival that is due.
    while (next < load.size() &&
           load[next].arrival_s <= vnow + 1e-15) {
      const ServiceRequest& r = load[next];
      ++next;
      const auto rp = replay.find(r.id);
      if (rp != replay.end()) {
        // Journaled outcome from a prior attempt: replay into accounting
        // without re-executing (completed work keeps its recorded latency)
        // and without re-deciding (quotes may differ at the survivor
        // count; the original decision stands).
        const RequestRecord& rec = rp->second;
        rep.records.push_back(rec);
        const Verdict v = static_cast<Verdict>(rec.verdict);
        if (v == Verdict::kCompleted) {
          account_completed(rec);
          vnow = std::max(vnow, rec.finish_s);
        } else if (v == Verdict::kFailed) {
          TenantMetrics& m = rep.tenants[static_cast<size_t>(rec.tenant)];
          ++m.admitted;
          ++m.failed;
          vnow = std::max(vnow, rec.start_s);
        } else {
          account_rejected(rec);
        }
        continue;
      }

      const TenantConfig& tc = cfg_.tenants[static_cast<size_t>(r.tenant)];
      TState& s = ts[static_cast<size_t>(r.tenant)];
      TenantMetrics& m = rep.tenants[static_cast<size_t>(r.tenant)];
      const Algo algo =
          r.opt.use_summa ? Algo::kCa3dmmSumma : Algo::kCa3dmm;
      const Quote& q = oracle_.quote(algo, workload_of(r));
      // Steady-state (warm) price: quota accounting should not depend on
      // transient cache state; the cold/warm split is re-priced at
      // dispatch for the SLA record.
      const double price = q.batch_s(r.batch, /*cached=*/true);

      RequestRecord rec;
      rec.id = r.id;
      rec.tenant = r.tenant;
      rec.done = true;
      rec.arrival_s = r.arrival_s;
      rec.admit_s = vnow;
      rec.peak_bytes = q.peak_bytes;

      refill(r.tenant);
      // Deterministic fair-share ETA used in retry-after estimates: the
      // tenant's queued work divided by its weight share of the service.
      const double eta =
          wfq.queued_cost(r.tenant) * total_weight / tc.weight;
      if (q.peak_bytes > tc.mem_quota_bytes) {
        rec.verdict = static_cast<int>(Verdict::kRejectedTooLarge);
      } else if (wfq.queue_depth(r.tenant) >= tc.max_queue) {
        rec.verdict = static_cast<int>(Verdict::kRejectedQueueFull);
        rec.retry_after_s = std::max(price, eta / 2);
      } else if (s.outstanding_bytes + q.peak_bytes > tc.mem_quota_bytes) {
        rec.verdict = static_cast<int>(Verdict::kRejectedMemQuota);
        rec.retry_after_s = std::max(price, eta / 2);
      } else if (s.tokens < price) {
        rec.verdict = static_cast<int>(Verdict::kRejectedVtimeQuota);
        rec.retry_after_s = (price - s.tokens) / tc.vtime_rate;
      } else {
        // Admitted: debit the bucket, reserve the memory, queue under WFQ.
        s.tokens -= price;
        s.outstanding_bytes += q.peak_bytes;
        m.peak_outstanding_bytes =
            std::max(m.peak_outstanding_bytes, s.outstanding_bytes);
        admitted[r.id] = AdmitInfo{price, q};
        wfq.enqueue(r.tenant, r.id, price, vnow);
        continue;  // outcome recorded at dispatch
      }
      rep.records.push_back(rec);
      account_rejected(rec);
      if (journal_out) journal_out->push_back(rec);
    }

    if (wfq.empty()) {
      if (next >= load.size()) break;
      vnow = std::max(vnow, load[next].arrival_s);
      continue;
    }

    // Fair-window tracking: the snapshot accumulates from the first pick
    // where every tenant is backlogged until any tenant's queue runs dry —
    // the interval over which WFQ's proportional-share guarantee holds.
    if (!window_started && wfq.all_backlogged()) window_started = true;
    else if (window_started && window_open && !wfq.all_backlogged())
      window_open = false;

    const WfqScheduler::Pick pick = *wfq.pick(vnow);
    const ServiceRequest& r = *by_id.at(pick.id);
    const AdmitInfo admit = admitted.at(pick.id);
    admitted.erase(pick.id);

    // In-flight journal mark: if the run aborts inside dispatch, the
    // driver knows exactly which request was lost.
    RequestRecord rec;
    rec.id = r.id;
    rec.tenant = r.tenant;
    rec.done = false;
    rec.verdict = static_cast<int>(Verdict::kFailed);
    rec.arrival_s = r.arrival_s;
    rec.admit_s = pick.enqueued_s;
    rec.start_s = vnow;
    rec.peak_bytes = admit.quote.peak_bytes;
    size_t journal_slot = 0;
    if (journal_out) {
      journal_out->push_back(rec);
      journal_slot = journal_out->size() - 1;
    }

    double predicted = 0;
    const double executed = dispatch(r, admit.quote, &predicted);
    const double t_start = vnow;
    vnow += executed;

    rec.done = true;
    rec.verdict = static_cast<int>(Verdict::kCompleted);
    rec.start_s = t_start;
    rec.finish_s = vnow;
    rec.predicted_s = predicted;
    rec.executed_s = executed;
    rep.records.push_back(rec);
    if (journal_out) (*journal_out)[journal_slot] = rec;

    TState& s = ts[static_cast<size_t>(r.tenant)];
    s.outstanding_bytes -= admit.quote.peak_bytes;
    // Token reconciliation: the bucket was debited the steady-state price
    // at admission; settle to the executed cost.
    refill(r.tenant);
    s.tokens = std::min(
        cfg_.tenants[static_cast<size_t>(r.tenant)].vtime_burst,
        s.tokens + (admit.debit - executed));
    account_completed(rec);

    if (window_started && window_open) {
      for (int t = 0; t < nt; ++t)
        rep.fair_window_served[static_cast<size_t>(t)] = wfq.served(t);
      rep.fair_window_end_s = vnow;
    }
  }

  // --- finalize ---
  rep.vtime_end = vnow;
  for (int t = 0; t < nt; ++t) {
    TenantMetrics& m = rep.tenants[static_cast<size_t>(t)];
    TState& s = ts[static_cast<size_t>(t)];
    m.p50_latency_s = percentile(s.latencies, 0.50);
    m.p99_latency_s = percentile(s.latencies, 0.99);
    m.p50_drift = percentile(s.drifts, 0.50);
    m.p99_drift = percentile(s.drifts, 0.99);
    for (double d : s.drifts) m.max_drift = std::max(m.max_drift, d);
  }
  rep.engine = engine_.stats();
  // Zero-OOM evidence: max over ranks of the pool's high-water footprint.
  const i64 my_hw = rep.engine.pool.high_water_bytes;
  std::vector<i64> hw(static_cast<size_t>(world_.size()));
  world_.allgather(&my_hw, 1, hw.data());
  rep.pool_high_water_bytes = *std::max_element(hw.begin(), hw.end());
  return rep;
}

}  // namespace ca3dmm::service
