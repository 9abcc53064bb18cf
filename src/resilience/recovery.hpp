// Shrink-and-replan recovery on top of the simulated cluster — the
// ULFM-style (MPI_Comm_shrink) failure model, made natural by CA3DMM's
// defining property: the grid solver produces a near-optimal plan for
// *arbitrary* P, so after losing ranks the surviving count is just another
// valid process count to plan for.
//
// A ResilientRunner owns successive Cluster instances. Each attempt runs
// the caller's rank_main on the current survivor set; when Cluster::run
// throws an aggregated ca3dmm::Error, the runner harvests the
// rank-attributed failure set, shrinks the world — whole nodes for
// node-level faults (straggler reclassification), individual ranks for
// kill-style faults — remaps the fault plan onto the shrunk numbering, and
// retries under a bounded RetryPolicy. rank_main must derive every layout
// and plan from world.size(), so replanning at the survivor count is
// automatic (see docs/RESILIENCE.md).
//
// Shrinking renumbers survivors contiguously, like MPI_Comm_shrink, but the
// *physical* node placement is pinned: each attempt runs on
// Topology::restricted_to(survivors), which keeps every survivor on the
// node (and cluster) it occupied before the shrink. Re-deriving placement
// from the contiguous order (node_of_rank = r / ranks_per_node) would
// silently migrate survivors onto the dead node's slots — straggler faults,
// degraded-node attribution, and trace pids would all point at the wrong
// physical node. Determinism: all attempt runtimes and the configured
// backoff are virtual time, so a recovered run's reported latency is
// reproducible bit for bit.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm::resilience {

/// Bounds the shrink-and-replan retry loop.
struct RetryPolicy {
  /// Total attempts, including the first (1 = no recovery, fail fast).
  int max_attempts = 3;
  /// Virtual-time penalty charged per retry (failure detection + respawn +
  /// replan on a real system). Accounted into RecoveryReport::backoff_s and
  /// total_vtime(); deterministic like every other virtual cost.
  double backoff_s = 0.0;
};

/// What happened in one attempt.
struct AttemptRecord {
  int attempt = 0;            ///< 1-based
  int nranks = 0;             ///< world size of this attempt
  bool ok = false;
  double vtime = 0;           ///< aggregate virtual time of the attempt
  std::string error;          ///< aggregated error ("" when ok)
  /// Failed ranks in ORIGINAL world numbering (the ranks excluded before
  /// the next attempt). Empty for the successful attempt.
  std::vector<int> failed_world_ranks;
  /// PHYSICAL node ids the straggler policy degraded (stable across
  /// shrinks: the attempt topology pins survivors to their original nodes).
  std::vector<int> degraded_nodes;
};

struct RecoveryReport {
  bool ok = false;
  std::vector<AttemptRecord> attempts;
  int final_nranks = 0;
  double backoff_s = 0;  ///< total backoff charged across retries
  /// Survivors of the final attempt, in original world numbering (index =
  /// final world rank).
  std::vector<int> surviving_world_ranks;
  /// Aggregate stats of the final (successful) attempt.
  simmpi::RankStats final_stats;

  /// End-to-end recovery latency: every attempt's virtual time plus the
  /// charged backoff. For a fault-free run this is just the run's vtime.
  double total_vtime() const {
    double t = backoff_s;
    for (const AttemptRecord& a : attempts) t += a.vtime;
    return t;
  }
  int attempts_used() const { return static_cast<int>(attempts.size()); }
};

/// Runs rank_main with shrink-and-replan recovery. Not reusable
/// concurrently; run() may be called repeatedly (each call starts from the
/// full original world).
class ResilientRunner {
 public:
  /// Homogeneous world of `nranks` ranks on `machine`.
  ResilientRunner(int nranks, simmpi::Machine machine, RetryPolicy policy = {});
  /// Explicit (possibly heterogeneous) topology; attempts shrink it with
  /// Topology::restricted_to, preserving physical node/cluster placement.
  explicit ResilientRunner(simmpi::Topology topo, RetryPolicy policy = {});

  /// Fault plan injected into attempt 1; remapped (kills/flips/stragglers
  /// translated to the shrunk numbering, entries for removed ranks/nodes
  /// dropped) for later attempts.
  void set_fault_plan(simmpi::FaultPlan plan) { faults_ = std::move(plan); }
  void set_straggler_policy(simmpi::StragglerPolicy p) { straggler_ = p; }
  void set_trace(const simmpi::TraceConfig& cfg) { trace_ = cfg; }

  /// Runs rank_main until it succeeds or the retry budget is exhausted.
  /// On success returns the report; on exhaustion (or an unshrinkable
  /// failure: a detected deadlock with no rank attribution, or a collectively
  /// raised error that marks every rank failed without a degraded node —
  /// i.e. a deterministic input error that shrinking cannot fix) throws a
  /// ca3dmm::Error that carries the original rank-attributed message. The
  /// report of the failed run stays readable via report().
  RecoveryReport run(const std::function<void(simmpi::Comm&)>& rank_main);

  const RecoveryReport& report() const { return report_; }
  /// Cluster of the most recent attempt (valid after run()).
  simmpi::Cluster& cluster() { return *cluster_; }

 private:
  int nranks_;
  simmpi::Topology topo_;  ///< full original world; attempts restrict it
  RetryPolicy policy_;
  simmpi::FaultPlan faults_;
  simmpi::StragglerPolicy straggler_;
  simmpi::TraceConfig trace_;
  std::unique_ptr<simmpi::Cluster> cluster_;
  RecoveryReport report_;
};

}  // namespace ca3dmm::resilience
