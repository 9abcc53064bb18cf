#include "resilience/recovery.hpp"

#include <numeric>

#include "common/error.hpp"

namespace ca3dmm::resilience {

using simmpi::Cluster;
using simmpi::FaultPlan;
using simmpi::Machine;
using simmpi::Topology;

namespace {

/// Translates a fault plan from the pre-shrink rank numbering to the
/// post-shrink one. old_to_new[r] is the new rank of pre-shrink rank r, or
/// -1 if r was excluded. Entries targeting excluded ranks (or degraded
/// nodes) are dropped — the fault already fired, or its target no longer
/// exists; entries that survive keep their trigger points (a kill's at_op
/// counts the rank's own ops, which restart from zero each attempt).
/// Straggler entries name PHYSICAL nodes and survive untouched (unless
/// degraded or empty of survivors): the attempt topology pins survivors to
/// their original nodes, so a slow node keeps its id across shrinks.
FaultPlan remap_fault_plan(const FaultPlan& plan,
                           const std::vector<int>& old_to_new,
                           const std::vector<int>& degraded,
                           const Topology& next_topo) {
  const int p_old = static_cast<int>(old_to_new.size());
  auto mapped = [&](int r) {
    return r >= 0 && r < p_old ? old_to_new[static_cast<size_t>(r)] : -1;
  };
  FaultPlan out;
  for (const FaultPlan::KillRank& k : plan.kills) {
    const int nr = mapped(k.rank);
    if (nr >= 0) out.kills.push_back({nr, k.at_op});
  }
  for (const FaultPlan::FlipPayload& f : plan.flips) {
    const int ns = mapped(f.src), nd = mapped(f.dst);
    if (ns >= 0 && nd >= 0)
      out.flips.push_back({ns, nd, f.tag, f.nth_match, f.offset, f.mask});
  }
  for (const FaultPlan::StraggleNode& s : plan.stragglers) {
    bool dropped = false;
    for (int dn : degraded) dropped = dropped || dn == s.node;
    if (dropped) continue;
    bool populated = false;
    for (int r = 0; r < next_topo.nranks() && !populated; ++r)
      populated = next_topo.node_of_rank(r) == s.node;
    if (populated) out.stragglers.push_back(s);
  }
  return out;
}

}  // namespace

ResilientRunner::ResilientRunner(int nranks, Machine machine,
                                 RetryPolicy policy)
    : ResilientRunner(Topology::homogeneous(nranks, machine), policy) {}

ResilientRunner::ResilientRunner(Topology topo, RetryPolicy policy)
    : nranks_(topo.nranks()), topo_(std::move(topo)), policy_(policy) {
  CA_REQUIRE(nranks_ >= 1, "ResilientRunner needs at least one rank, got %d",
             nranks_);
  CA_REQUIRE(policy.max_attempts >= 1,
             "RetryPolicy::max_attempts must be >= 1, got %d",
             policy.max_attempts);
  CA_REQUIRE(policy.backoff_s >= 0, "RetryPolicy::backoff_s must be >= 0");
}

RecoveryReport ResilientRunner::run(
    const std::function<void(simmpi::Comm&)>& rank_main) {
  report_ = RecoveryReport{};
  std::vector<int> survivors(static_cast<size_t>(nranks_));
  std::iota(survivors.begin(), survivors.end(), 0);
  FaultPlan plan = faults_;

  for (int attempt = 1;; ++attempt) {
    const int P = static_cast<int>(survivors.size());
    // The attempt topology pins survivors to their pre-shrink physical
    // nodes (and clusters); for attempt 1 this is the full original world.
    const Topology attempt_topo = topo_.restricted_to(survivors);
    cluster_ = std::make_unique<Cluster>(attempt_topo);
    cluster_->set_fault_plan(plan);
    cluster_->set_straggler_policy(straggler_);
    cluster_->set_trace(trace_);

    AttemptRecord rec;
    rec.attempt = attempt;
    rec.nranks = P;
    try {
      cluster_->run(rank_main);
      rec.ok = true;
      rec.vtime = cluster_->aggregate_stats().vtime;
      report_.attempts.push_back(rec);
      report_.ok = true;
      report_.final_nranks = P;
      report_.surviving_world_ranks = survivors;
      report_.final_stats = cluster_->aggregate_stats();
      return report_;
    } catch (const Error& e) {
      rec.error = e.what();
      rec.vtime = cluster_->aggregate_stats().vtime;
      rec.degraded_nodes = cluster_->degraded_nodes();

      // Failure set in attempt-local numbering. Node-level faults
      // (straggler reclassification) exclude whole nodes; otherwise the
      // recorded failed ranks are excluded individually. Both sources are
      // sorted ascending.
      std::vector<int> excluded;
      if (!rec.degraded_nodes.empty()) {
        for (int r = 0; r < P; ++r)
          for (int dn : rec.degraded_nodes)
            if (attempt_topo.node_of_rank(r) == dn) {
              excluded.push_back(r);
              break;
            }
      } else {
        excluded = cluster_->failed_ranks();
      }
      for (int r : excluded)
        rec.failed_world_ranks.push_back(survivors[static_cast<size_t>(r)]);
      report_.attempts.push_back(rec);
      report_.final_nranks = P;
      report_.surviving_world_ranks = survivors;

      // A failure with no rank attributed (a detected deadlock) cannot be
      // shrunk away; one where every rank failed without a degraded node is
      // a collectively raised input error that would recur at any size.
      if (excluded.empty() || static_cast<int>(excluded.size()) >= P)
        throw Error(strprintf(
            "recovery: failure is not shrinkable (%s) — %s",
            excluded.empty() ? "no rank attributed"
                             : "all ranks failed collectively",
            e.what()));
      if (attempt >= policy_.max_attempts)
        throw Error(strprintf(
            "recovery: retry budget exhausted after %d attempt%s — last "
            "failure: %s",
            attempt, attempt == 1 ? "" : "s", e.what()));

      // Shrink: renumber survivors contiguously (MPI_Comm_shrink-like).
      std::vector<int> old_to_new(static_cast<size_t>(P), -1);
      std::vector<int> next;
      size_t xi = 0;
      int nn = 0;
      for (int r = 0; r < P; ++r) {
        if (xi < excluded.size() && excluded[xi] == r) {
          ++xi;
          continue;
        }
        old_to_new[static_cast<size_t>(r)] = nn++;
        next.push_back(survivors[static_cast<size_t>(r)]);
      }
      survivors = std::move(next);
      plan = remap_fault_plan(plan, old_to_new, rec.degraded_nodes,
                              topo_.restricted_to(survivors));
      report_.backoff_s += policy_.backoff_s;
    }
  }
}

}  // namespace ca3dmm::resilience
