// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is attached to a Cluster before run() and fires at exact
// points in each rank's own program order, so a given plan reproduces the
// same failure on every run — the property that makes failure-path tests
// (cooperative abort, deadlock detection, consistency checks) non-flaky.
#pragma once

#include <vector>

#include "common/partition.hpp"

namespace ca3dmm::simmpi {

struct FaultPlan {
  /// Throw a ca3dmm::Error inside world rank `rank` when it issues its
  /// `at_op`-th communication operation (1-based; every collective and
  /// sendrecv counts as one op on the calling rank).
  struct KillRank {
    int rank = -1;
    i64 at_op = 1;
  };

  /// Scale all locally charged time of every rank on node `node` by
  /// `factor` (>= 1): local GEMMs and the rank's own point-to-point costs.
  /// Collectives observe the straggler through its late arrival, which is
  /// exactly how a slow node delays a bulk-synchronous phase.
  struct StraggleNode {
    int node = -1;
    double factor = 1.0;
  };

  /// XOR `mask` into byte `offset` of the `nth_match`-th message received on
  /// the point-to-point channel (src, dst, tag) — world ranks, 1-based match
  /// count, across all communicators.
  struct FlipPayload {
    int src = -1;
    int dst = -1;
    int tag = 0;
    int nth_match = 1;
    i64 offset = 0;
    unsigned char mask = 0x01;
  };

  std::vector<KillRank> kills;
  std::vector<StraggleNode> stragglers;
  std::vector<FlipPayload> flips;

  bool empty() const {
    return kills.empty() && stragglers.empty() && flips.empty();
  }
};

/// Straggler-mitigation policy, checked at every collective rendezvous on
/// top of deadlock detection (which only catches total stalls, not slow
/// nodes). When the last arriver's entry time exceeds
/// `degrade_factor` times the latest entry time of any rank on a *different*
/// node — comparing against other nodes, not other ranks, so a whole slow
/// node cannot mask itself — and the absolute lag is at least `min_lag_s`
/// of virtual time, the late rank's node is recorded as degraded
/// (Cluster::degraded_nodes) and the collective raises a ca3dmm::Error on
/// every member, triggering the same shrink path as a rank kill.
/// All thresholds are virtual time, so detection is deterministic.
struct StragglerPolicy {
  bool enabled = false;
  double degrade_factor = 3.0;  ///< last arrival vs other nodes' latest
  double min_lag_s = 0.0;       ///< absolute virtual-time lag floor (s)
};

}  // namespace ca3dmm::simmpi
