// Collective cost formulas (paper §III-D).
//
// The paper assumes butterfly-network collectives, optimal or near-optimal in
// the alpha-beta model, with costs
//
//   T_allgather(n, P)      = alpha log2(P)        + beta n (P-1)/P
//   T_broadcast(n, P)      = alpha (log2(P)+P-1)  + 2 beta n (P-1)/P
//   T_reduce_scatter(n, P) = alpha (P-1)          + beta n (P-1)/P
//
// where n is the total message size. The executable engine and the analytic
// cost model both reach these functions through GroupPricing
// (clock_rules.hpp), so the two layers are consistent by construction.
//
// A process group spanning several nodes sees a mix of intra-node and
// inter-node links. GroupProfile summarizes the composition of a group; the
// effective alpha/beta are the intra/inter parameters mixed by the fraction
// of traffic that stays inside a node. For a flat schedule over a group
// whose peer pairings are placement-oblivious (butterfly rounds pair every
// rank with every distance class), the expected intra-node byte fraction is
// the probability that a uniformly random ordered pair of distinct group
// ranks shares a node:
//
//   intra_frac = sum_nodes c_n (c_n - 1) / (p (p - 1))
//
// where c_n ranks of the group live on node n. For a group placed as r full
// nodes' worth of contiguous ranks this reduces to the classical (r-1)/(p-1),
// but unlike that shortcut it stays correct for strided and unevenly placed
// groups (e.g. CA3DMM's replication splits, which stride by s^2), which the
// shortcut systematically undercharges for inter-node traffic.
//
// Groups spanning several *clusters* of a heterogeneous Topology
// (topology.hpp) additionally record a per-cluster decomposition; the
// cross-cluster two-level schedule (CollAlgo::kCrossCluster) prices them as
// intra-cluster phases plus an inter-cluster leader exchange, mirroring
// FlagCX's hybrid runner.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "common/partition.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/topology.hpp"

namespace ca3dmm::simmpi {

/// Composition of a process group with respect to node placement.
struct GroupProfile {
  int size = 1;            ///< number of ranks in the group
  int nodes = 1;           ///< number of distinct nodes the group touches
  int max_ranks_per_node = 1;
  bool single_node = true;
  /// Exact intra-node byte fraction from the group's node multiset (see the
  /// header comment). Negative = unknown (hand-built profiles); group_link
  /// then falls back to the contiguous-placement (r-1)/(p-1) shortcut.
  double intra_frac = -1.0;

  /// The group's footprint on one cluster of a Topology. `mach` aliases the
  /// Topology the profile was built from — keep that Topology alive for the
  /// profile's lifetime (Cluster owns its copy; the cost model's Topology
  /// outlives every predict call).
  struct Part {
    int cluster = 0;
    int size = 0;
    int nodes = 1;
    int max_ranks_per_node = 1;
    double intra_frac = 1.0;  ///< node multiset fraction within the part
    const Machine* mach = nullptr;
  };
  /// Per-cluster decomposition, ordered by cluster id. Empty for profiles
  /// built from a bare Machine (from_world_ranks) or by hand.
  std::vector<Part> parts;
  int clusters = 1;          ///< distinct clusters the group touches
  /// Fraction of a flat schedule's traffic that stays within one cluster
  /// (same pair-counting rule as intra_frac, applied to the cluster
  /// multiset). 1 for single-cluster groups.
  double cluster_frac = 1.0;
  /// Inter-cluster link parameters (valid when clusters > 1).
  double inter_alpha = 0;
  double inter_beta = 0;

  static GroupProfile from_world_ranks(const Machine& m,
                                       const std::vector<int>& world_ranks);
  /// Topology-aware profile: exact node multiset fraction, per-cluster
  /// parts, inter-cluster link. For a single-cluster Topology the resulting
  /// costs match from_world_ranks on the same placement.
  static GroupProfile from_topology(const Topology& topo,
                                    const std::vector<int>& world_ranks);
};

/// Effective per-rank latency/inverse-bandwidth of a group's links.
struct LinkParams {
  double alpha = 0;  ///< seconds per message
  double beta = 0;   ///< seconds per byte
};

/// Mixes intra/inter-node parameters according to the group composition.
LinkParams group_link(const Machine& m, const GroupProfile& g);

/// Fraction of a flat schedule's traffic that crosses node boundaries: the
/// complement of the group's intra-node byte fraction (the exact multiset
/// value when the profile carries one, the (r-1)/(p-1) shortcut otherwise;
/// 0 for single-node groups).
double group_inter_frac(const GroupProfile& g);

/// Point-to-point message cost; `same_node` selects the link class.
double t_p2p(const Machine& m, double bytes, bool same_node);

// Collective costs. `bytes` is the total message size n of the paper's
// formulas (e.g. for allgather: the size of the concatenated result).
double t_allgather(const LinkParams& l, double bytes, int p);
double t_broadcast(const LinkParams& l, double bytes, int p);
double t_reduce_scatter(const LinkParams& l, double bytes, int p);
double t_allreduce(const LinkParams& l, double bytes, int p);
/// Personalized all-to-all with per-rank maximum send/recv volume `max_bytes`.
double t_alltoallv(const LinkParams& l, double max_bytes, int p);

/// Reduce-scatter with the machine's large-message penalty applied (models
/// the MVAPICH2 degradation the paper reports in §IV-C for GPU runs).
double t_reduce_scatter_machine(const Machine& m, const LinkParams& l,
                                double bytes, int p);

// ------------------------------------------------------------------
// Collective schedule selection (the topology-aware collective engine)
// ------------------------------------------------------------------

/// Collective schedule. The data a collective delivers is identical under
/// every schedule (and reductions always sum in rank order, so results are
/// byte-identical); what changes is the modeled cost and the inter-node
/// traffic it implies.
enum class CollAlgo {
  /// The paper's §III-D butterfly formulas, exactly as seeded — the default.
  kPaperButterfly,
  /// Ring schedule: bandwidth-optimal, (p-1) latency rounds.
  kRing,
  /// Recursive doubling/halving (Rabenseifner for allreduce): log2(p)
  /// latency rounds; non-power-of-two groups pay a rounded-up bandwidth
  /// term (Bruck-style dissemination).
  kRecursive,
  /// Two-level schedule (Quintin–Hasanov–Lastovetsky): an intra-node phase
  /// over the ranks of each node plus an inter-node phase over one leader
  /// per node. Only the leaders touch the network, so a node's traffic
  /// crosses its NIC once instead of once per rank. Falls back to the paper
  /// butterfly when the group sits on one node or has one rank per node.
  kHierarchical,
  /// Two-level *cross-cluster* schedule (the FlagCX hybrid-runner model):
  /// an intra-cluster phase per cluster the group touches — each priced
  /// with that cluster's own machine parameters — joined by an exchange
  /// over one leader per cluster on the inter-cluster link. Groups
  /// confined to one cluster downgrade to kHierarchical/kPaperButterfly.
  kCrossCluster,
  /// Per-call selection by message size and group composition: groups
  /// spanning clusters use kCrossCluster; multi-node groups with >1 rank
  /// per node use kHierarchical; otherwise messages below
  /// `CollectiveConfig::small_message_bytes` use kRecursive (latency-bound
  /// regime) and larger ones the paper butterfly.
  kAuto,
};

const char* coll_algo_name(CollAlgo a);

/// Per-communicator collective configuration. The default reproduces the
/// seeded behaviour bit-for-bit: paper-butterfly costs for every
/// collective.
struct CollectiveConfig {
  CollAlgo allgather = CollAlgo::kPaperButterfly;
  CollAlgo reduce_scatter = CollAlgo::kPaperButterfly;
  CollAlgo bcast = CollAlgo::kPaperButterfly;
  CollAlgo allreduce = CollAlgo::kPaperButterfly;
  /// kAuto switches from kRecursive to the bandwidth-minded schedule at
  /// this total message size.
  i64 small_message_bytes = 16 * 1024;

  /// All four collectives on kAuto — the tuned mode benches exercise.
  static CollectiveConfig tuned() {
    CollectiveConfig c;
    c.allgather = c.reduce_scatter = c.bcast = c.allreduce = CollAlgo::kAuto;
    return c;
  }

  friend bool operator==(const CollectiveConfig&,
                         const CollectiveConfig&) = default;
  friend auto operator<=>(const CollectiveConfig&,
                          const CollectiveConfig&) = default;
};

/// Modeled cost of one collective: virtual seconds charged to every
/// participant, plus the aggregate inter-node bytes the schedule puts on
/// the network (summed over all group members; each participant's RankStats
/// accounts inter_bytes/p so per-phase sums across ranks equal this).
struct CollCost {
  double t = 0;
  double inter_bytes = 0;
  /// Resolved schedule name (static string; null for ops without one, e.g.
  /// barrier/alltoallv) and total message size n — carried into traces.
  const char* algo = nullptr;
  double bytes = 0;
};

/// The schedule actually used for a call: groups spanning clusters resolve
/// kAuto/kHierarchical to kCrossCluster; otherwise kAuto picks by message
/// size / composition, kHierarchical downgrades to the butterfly when the
/// group has no two-level structure (single node, or one rank per node),
/// and kCrossCluster downgrades the same way as kAuto.
CollAlgo resolve_coll_algo(CollAlgo configured, const GroupProfile& g,
                           double bytes, i64 small_message_bytes);

// Schedule-aware costs. `bytes` is the total message size n (as in the
// paper's formulas); `a` must be a resolved algorithm (not kAuto). With
// kPaperButterfly these reproduce t_allgather / t_reduce_scatter(_machine) /
// t_broadcast / t_allreduce bit-for-bit.
CollCost coll_allgather_cost(const Machine& m, const GroupProfile& g,
                             const LinkParams& l, CollAlgo a, double bytes,
                             int p);
/// `custom_tree` skips the machine's large-message degradation (application
/// -implemented reduction trees, paper §IV-C).
CollCost coll_reduce_scatter_cost(const Machine& m, const GroupProfile& g,
                                  const LinkParams& l, CollAlgo a,
                                  double bytes, int p, bool custom_tree);
CollCost coll_bcast_cost(const Machine& m, const GroupProfile& g,
                         const LinkParams& l, CollAlgo a, double bytes, int p);
CollCost coll_allreduce_cost(const Machine& m, const GroupProfile& g,
                             const LinkParams& l, CollAlgo a, double bytes,
                             int p);

/// Personalized all-to-all with the machine's congestion/message-rate
/// factors applied (multi-node groups only) — the cost the redistribution
/// step actually pays.
double t_alltoallv_machine(const Machine& m, const LinkParams& l,
                           double max_bytes, int p, bool single_node);

inline double log2d(int p) {
  double l = 0;
  while ((1 << static_cast<int>(l)) < p) l += 1.0;
  return l;
}

}  // namespace ca3dmm::simmpi
