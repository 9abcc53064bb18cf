#include "simmpi/coll_cost.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"

namespace ca3dmm::simmpi {

namespace {

/// Exact intra-node byte fraction of a flat schedule from the group's node
/// multiset: the probability a random ordered pair of distinct group ranks
/// shares a node. `counts` = ranks per node; `p` = group size.
double pair_frac(double same_pairs, int p) {
  if (p <= 1) return 1.0;
  return same_pairs / (static_cast<double>(p) * (p - 1));
}

template <typename Counts>
double multiset_intra_frac(const Counts& counts, int p) {
  double same_pairs = 0;
  for (const auto& [id, cnt] : counts)
    same_pairs += static_cast<double>(cnt) * (cnt - 1);
  return pair_frac(same_pairs, p);
}

/// Cost-formula machine of a profile: its first cluster's Machine when the
/// profile is topology-built, else the caller's fallback. Engine and model
/// both pass the cluster-0 anchor as fallback, so the two layers agree on
/// every machine-specific knob (rs penalty, alltoallv derating, leader
/// links) by construction.
const Machine& anchor_machine(const Machine& fallback, const GroupProfile& g) {
  return g.parts.empty() ? fallback : *g.parts.front().mach;
}

/// The contiguous-placement shortcut the pre-fix group_link used; kept only
/// for hand-built profiles that carry no node multiset.
double legacy_intra_frac(const GroupProfile& g) {
  const double r = static_cast<double>(g.max_ranks_per_node);
  const double p = static_cast<double>(g.size);
  return (r - 1.0) / (p - 1.0);
}

double group_intra_frac(const GroupProfile& g) {
  return g.intra_frac >= 0 ? g.intra_frac : legacy_intra_frac(g);
}

}  // namespace

GroupProfile GroupProfile::from_world_ranks(const Machine& m,
                                            const std::vector<int>& ranks) {
  CA_ASSERT(!ranks.empty());
  std::unordered_map<int, int> per_node;
  for (int r : ranks) per_node[m.node_of_rank(r)]++;
  GroupProfile g;
  g.size = static_cast<int>(ranks.size());
  g.nodes = static_cast<int>(per_node.size());
  g.max_ranks_per_node = 0;
  for (const auto& [node, cnt] : per_node)
    g.max_ranks_per_node = std::max(g.max_ranks_per_node, cnt);
  g.single_node = (g.nodes == 1);
  g.intra_frac = multiset_intra_frac(per_node, g.size);
  return g;
}

GroupProfile GroupProfile::from_topology(const Topology& topo,
                                         const std::vector<int>& ranks) {
  CA_ASSERT(!ranks.empty());
  GroupProfile g;
  g.size = static_cast<int>(ranks.size());
  g.inter_alpha = topo.link().alpha;
  g.inter_beta = topo.link().beta();
  g.nodes = 0;
  // (cluster, node) of every member, sorted: each run of equal pairs is one
  // node's ranks, and runs are grouped by cluster. The pair counts are
  // integers, so their sums do not depend on the visiting order.
  thread_local std::vector<std::pair<int, int>> at;  // predict asks often
  at.clear();
  for (int r : ranks)
    at.emplace_back(topo.cluster_of_rank(r), topo.node_of_rank(r));
  std::sort(at.begin(), at.end());
  double node_pairs = 0, clu_pairs = 0;
  for (size_t lo = 0; lo < at.size();) {
    Part pt;
    pt.cluster = at[lo].first;
    pt.mach = &topo.machine_of_cluster(pt.cluster);
    pt.nodes = 0;
    double part_pairs = 0;
    size_t hi = lo;
    while (hi < at.size() && at[hi].first == pt.cluster) {
      size_t end = hi;
      while (end < at.size() && at[end] == at[hi]) ++end;
      const int cnt = static_cast<int>(end - hi);
      pt.nodes++;
      pt.max_ranks_per_node = std::max(pt.max_ranks_per_node, cnt);
      part_pairs += static_cast<double>(cnt) * (cnt - 1);
      hi = end;
    }
    pt.size = static_cast<int>(hi - lo);
    pt.intra_frac = pair_frac(part_pairs, pt.size);
    g.nodes += pt.nodes;
    g.max_ranks_per_node =
        std::max(g.max_ranks_per_node, pt.max_ranks_per_node);
    node_pairs += part_pairs;
    clu_pairs += static_cast<double>(pt.size) * (pt.size - 1);
    g.parts.push_back(pt);
    lo = hi;
  }
  g.single_node = (g.nodes == 1);
  g.intra_frac = pair_frac(node_pairs, g.size);
  g.clusters = static_cast<int>(g.parts.size());
  g.cluster_frac = pair_frac(clu_pairs, g.size);
  return g;
}

LinkParams group_link(const Machine& m, const GroupProfile& g) {
  const Machine& am = anchor_machine(m, g);
  if (g.clusters > 1) {
    // Three-tier mix for a flat schedule spanning clusters: traffic splits
    // into same-node / same-cluster-cross-node / cross-cluster fractions
    // (pair-counting, like intra_frac); the node and cluster tiers use
    // rank-weighted averages of the member clusters' machine parameters.
    const double p = static_cast<double>(g.size);
    double a_node = 0, b_node = 0, a_clu = 0, b_clu = 0;
    for (const GroupProfile::Part& pt : g.parts) {
      const double w = static_cast<double>(pt.size) / p;
      a_node += w * pt.mach->alpha_intra;
      b_node += w / pt.mach->intra_rank_bandwidth();
      a_clu += w * pt.mach->alpha_inter;
      b_clu += w / pt.mach->inter_rank_bandwidth();
    }
    const double f_node = g.intra_frac;
    const double f_x = 1.0 - g.cluster_frac;
    const double f_clu = std::max(0.0, g.cluster_frac - g.intra_frac);
    LinkParams l;
    l.alpha = f_node * a_node + f_clu * a_clu + f_x * g.inter_alpha;
    l.beta = f_node * b_node + f_clu * b_clu + f_x * g.inter_beta;
    return l;
  }
  const double beta_intra = 1.0 / am.intra_rank_bandwidth();
  if (g.single_node || g.size <= 1)
    return LinkParams{am.alpha_intra, beta_intra};
  const double beta_inter = 1.0 / am.inter_rank_bandwidth();
  // Intra-node byte fraction: the exact node-multiset value when the
  // profile carries one, the contiguous-placement (r-1)/(p-1) shortcut for
  // hand-built profiles.
  const double intra_frac = group_intra_frac(g);
  LinkParams l;
  l.alpha = intra_frac * am.alpha_intra + (1.0 - intra_frac) * am.alpha_inter;
  l.beta = intra_frac * beta_intra + (1.0 - intra_frac) * beta_inter;
  return l;
}

double t_p2p(const Machine& m, double bytes, bool same_node) {
  if (same_node)
    return m.alpha_intra + bytes / m.intra_rank_bandwidth();
  return m.alpha_inter + bytes / m.inter_rank_bandwidth();
}

double t_allgather(const LinkParams& l, double bytes, int p) {
  if (p <= 1) return 0.0;
  return l.alpha * log2d(p) + l.beta * bytes * (p - 1) / p;
}

double t_broadcast(const LinkParams& l, double bytes, int p) {
  if (p <= 1) return 0.0;
  return l.alpha * (log2d(p) + p - 1) + 2.0 * l.beta * bytes * (p - 1) / p;
}

double t_reduce_scatter(const LinkParams& l, double bytes, int p) {
  if (p <= 1) return 0.0;
  return l.alpha * (p - 1) + l.beta * bytes * (p - 1) / p;
}

double t_allreduce(const LinkParams& l, double bytes, int p) {
  // Butterfly allreduce = reduce-scatter + allgather.
  return t_reduce_scatter(l, bytes, p) + t_allgather(l, bytes, p);
}

double t_alltoallv(const LinkParams& l, double max_bytes, int p) {
  if (p <= 1) return 0.0;
  return l.alpha * (p - 1) + l.beta * max_bytes;
}

double t_reduce_scatter_machine(const Machine& m, const LinkParams& l,
                                double bytes, int p) {
  double t = t_reduce_scatter(l, bytes, p);
  if (p > 1 && bytes / p > m.rs_penalty_threshold_bytes)
    t *= m.rs_penalty_factor;
  return t;
}

double t_alltoallv_machine(const Machine& m, const LinkParams& l,
                           double max_bytes, int p, bool single_node) {
  if (p <= 1) return 0.0;
  if (single_node) return t_alltoallv(l, max_bytes, p);
  return l.alpha * (p - 1) * m.alltoallv_alpha_factor +
         l.beta * max_bytes * m.alltoallv_beta_factor;
}

// ------------------------------------------------------------------
// Schedule-aware costs
// ------------------------------------------------------------------

const char* coll_algo_name(CollAlgo a) {
  switch (a) {
    case CollAlgo::kPaperButterfly: return "butterfly";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kRecursive: return "recursive";
    case CollAlgo::kHierarchical: return "hierarchical";
    case CollAlgo::kCrossCluster: return "cross-cluster";
    case CollAlgo::kAuto: return "auto";
  }
  return "?";
}

double group_inter_frac(const GroupProfile& g) {
  if (g.single_node || g.size <= 1) return 0.0;
  return 1.0 - group_intra_frac(g);
}

namespace {

/// Link between node leaders: one rank per node driving the full NIC share
/// a single rank can claim.
LinkParams leader_link(const Machine& m) {
  return LinkParams{m.alpha_inter,
                    1.0 / (m.nic_bandwidth * m.single_rank_nic_fraction)};
}

LinkParams intra_link(const Machine& m) {
  return LinkParams{m.alpha_intra, 1.0 / m.intra_rank_bandwidth()};
}

/// Can a two-level schedule actually do anything for this group?
bool hierarchy_applies(const GroupProfile& g) {
  return !g.single_node && g.nodes > 1 && g.max_ranks_per_node > 1 &&
         g.size > 1;
}

/// Rounded-up power-of-two size for recursive-doubling bandwidth terms on
/// non-power-of-two groups (Bruck-style dissemination sends ceil rounds).
double pow2_ceil(int p) { return static_cast<double>(1 << (int)log2d(p)); }

/// Root-scatter cost: alpha log2(p) + beta n (p-1)/p (binomial scatter of a
/// size-n buffer), the intra-node tail of the hierarchical reduce-scatter.
double t_scatter(const LinkParams& l, double bytes, int p) {
  if (p <= 1) return 0.0;
  return l.alpha * log2d(p) + l.beta * bytes * (p - 1) / p;
}

/// Effective link inside one cluster part: the part's machine parameters
/// mixed by the part's own node multiset fraction (the same rule group_link
/// applies to whole single-cluster groups).
LinkParams part_link(const GroupProfile::Part& pt) {
  const Machine& m = *pt.mach;
  const double beta_intra = 1.0 / m.intra_rank_bandwidth();
  if (pt.nodes <= 1 || pt.size <= 1)
    return LinkParams{m.alpha_intra, beta_intra};
  const double beta_inter = 1.0 / m.inter_rank_bandwidth();
  const double f = pt.intra_frac;
  return LinkParams{f * m.alpha_intra + (1.0 - f) * m.alpha_inter,
                    f * beta_intra + (1.0 - f) * beta_inter};
}

/// The inter-cluster leader link of a spanning group.
LinkParams cross_link(const GroupProfile& g) {
  return LinkParams{g.inter_alpha, g.inter_beta};
}

/// Does the cross-cluster two-level schedule apply?
bool cross_cluster_applies(const GroupProfile& g) {
  return g.clusters > 1 && g.size > 1;
}

}  // namespace

CollAlgo resolve_coll_algo(CollAlgo configured, const GroupProfile& g,
                           double bytes, i64 small_message_bytes) {
  CollAlgo a = configured;
  // A group spanning clusters has no single fabric a flat hierarchical
  // schedule could assume; kAuto and both two-level schedules route to the
  // cross-cluster plan (explicit flat schedules keep their formulas, priced
  // on the three-tier mixed link).
  if (cross_cluster_applies(g) &&
      (a == CollAlgo::kAuto || a == CollAlgo::kHierarchical ||
       a == CollAlgo::kCrossCluster))
    return CollAlgo::kCrossCluster;
  if (a == CollAlgo::kCrossCluster) a = CollAlgo::kAuto;  // single cluster
  if (a == CollAlgo::kAuto) {
    if (hierarchy_applies(g))
      a = CollAlgo::kHierarchical;
    else if (bytes <= static_cast<double>(small_message_bytes))
      a = CollAlgo::kRecursive;
    else
      a = CollAlgo::kPaperButterfly;
  }
  if (a == CollAlgo::kHierarchical && !hierarchy_applies(g))
    a = CollAlgo::kPaperButterfly;  // no two-level structure to exploit
  return a;
}

CollCost coll_allgather_cost(const Machine& m, const GroupProfile& g,
                             const LinkParams& l, CollAlgo a, double bytes,
                             int p) {
  CollCost c;
  c.algo = coll_algo_name(a);
  c.bytes = bytes;
  if (p <= 1) return c;
  switch (a) {
    case CollAlgo::kPaperButterfly:
      c.t = t_allgather(l, bytes, p);
      c.inter_bytes = bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRing:
      // p-1 rounds, each moving n/p per rank.
      c.t = l.alpha * (p - 1) + l.beta * bytes * (p - 1) / p;
      c.inter_bytes = bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRecursive: {
      // Recursive doubling: log2 rounds; non-power-of-two groups pay the
      // rounded-up bandwidth term.
      const double q = pow2_ceil(p);
      c.t = l.alpha * log2d(p) + l.beta * bytes * (q - 1) / q;
      c.inter_bytes = bytes * (q - 1) / q * p * group_inter_frac(g);
      break;
    }
    case CollAlgo::kHierarchical: {
      // Gather within each node, allgather the per-node aggregates across
      // the N leaders, broadcast the remote part back inside each node.
      const Machine& am = anchor_machine(m, g);
      const int N = g.nodes;
      const int r = g.max_ranks_per_node;
      const LinkParams li = intra_link(am);
      c.t = t_allgather(li, bytes / N, r) +
            t_allgather(leader_link(am), bytes, N) +
            t_broadcast(li, bytes * (N - 1) / N, r);
      c.inter_bytes = bytes * (N - 1);  // each node's share crosses once
      break;
    }
    case CollAlgo::kCrossCluster: {
      // Intra-cluster gather of each cluster's share (each part priced on
      // its own machine), allgather of the aggregates over one leader per
      // cluster on the inter-cluster link, then each cluster broadcasts
      // the remote part internally. The slowest cluster gates each phase.
      double t_in = 0, t_out = 0, part_inter = 0;
      for (const GroupProfile::Part& pt : g.parts) {
        const LinkParams lp = part_link(pt);
        const double share = bytes * pt.size / p;
        t_in = std::max(t_in, t_allgather(lp, share, pt.size));
        t_out = std::max(t_out, t_broadcast(lp, bytes - share, pt.size));
        part_inter += share * (pt.nodes - 1);
      }
      c.t = t_in + t_allgather(cross_link(g), bytes, g.clusters) + t_out;
      c.inter_bytes = bytes * (g.clusters - 1) + part_inter;
      break;
    }
    case CollAlgo::kAuto:
      CA_ASSERT(false && "resolve_coll_algo first");
  }
  return c;
}

CollCost coll_reduce_scatter_cost(const Machine& m, const GroupProfile& g,
                                  const LinkParams& l, CollAlgo a,
                                  double bytes, int p, bool custom_tree) {
  CollCost c;
  c.algo = coll_algo_name(a);
  c.bytes = bytes;
  if (p <= 1) return c;
  const Machine& am = anchor_machine(m, g);
  switch (a) {
    case CollAlgo::kPaperButterfly:
      c.t = custom_tree ? t_reduce_scatter(l, bytes, p)
                        : t_reduce_scatter_machine(am, l, bytes, p);
      c.inter_bytes = bytes * (p - 1) * group_inter_frac(g);
      return c;
    case CollAlgo::kRing:
      c.t = l.alpha * (p - 1) + l.beta * bytes * (p - 1) / p;
      c.inter_bytes = bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRecursive: {
      // Recursive halving: log2 rounds instead of the library's p-1.
      const double q = pow2_ceil(p);
      c.t = l.alpha * log2d(p) + l.beta * bytes * (q - 1) / q;
      c.inter_bytes = bytes * (q - 1) / q * p * group_inter_frac(g);
      break;
    }
    case CollAlgo::kHierarchical: {
      // Reduce-scatter within each node, reduce-scatter the partial sums
      // across the N leaders, scatter each node's slice back to its ranks.
      const int N = g.nodes;
      const int r = g.max_ranks_per_node;
      const LinkParams li = intra_link(am);
      c.t = t_reduce_scatter(li, bytes, r) +
            t_reduce_scatter(leader_link(am), bytes, N) +
            t_scatter(li, bytes / N, r);
      c.inter_bytes = bytes * (N - 1);
      break;
    }
    case CollAlgo::kCrossCluster: {
      // Each cluster reduce-scatters the full vector among its ranks, the
      // cluster leaders reduce-scatter the partials over the inter-cluster
      // link, then each leader scatters its cluster's final slice.
      double t_in = 0, t_out = 0, part_inter = 0;
      for (const GroupProfile::Part& pt : g.parts) {
        const LinkParams lp = part_link(pt);
        const double share = bytes * pt.size / p;
        t_in = std::max(t_in, t_reduce_scatter(lp, bytes, pt.size));
        t_out = std::max(t_out, t_scatter(lp, share, pt.size));
        part_inter += share * (pt.nodes - 1);
      }
      c.t = t_in + t_reduce_scatter(cross_link(g), bytes, g.clusters) + t_out;
      c.inter_bytes = bytes * (g.clusters - 1) + part_inter;
      break;
    }
    case CollAlgo::kAuto:
      CA_ASSERT(false && "resolve_coll_algo first");
  }
  // Library-implemented schedules still hit the machine's large-message
  // degradation; application trees (custom_tree) bypass it.
  if (!custom_tree && bytes / p > am.rs_penalty_threshold_bytes)
    c.t *= am.rs_penalty_factor;
  return c;
}

CollCost coll_bcast_cost(const Machine& m, const GroupProfile& g,
                         const LinkParams& l, CollAlgo a, double bytes,
                         int p) {
  CollCost c;
  c.algo = coll_algo_name(a);
  c.bytes = bytes;
  if (p <= 1) return c;
  switch (a) {
    case CollAlgo::kPaperButterfly:
      c.t = t_broadcast(l, bytes, p);
      // Scatter + allgather moves ~2 n (p-1)/p per rank.
      c.inter_bytes = 2.0 * bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRing:
      // Pipelined chunks around a ring.
      c.t = l.alpha * (p - 1) + 2.0 * l.beta * bytes * (p - 1) / p;
      c.inter_bytes = bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRecursive:
      // Binomial tree: log2(p) full-message hops.
      c.t = log2d(p) * (l.alpha + l.beta * bytes);
      c.inter_bytes = bytes * log2d(p) * group_inter_frac(g);
      break;
    case CollAlgo::kHierarchical: {
      const Machine& am = anchor_machine(m, g);
      const int N = g.nodes;
      const int r = g.max_ranks_per_node;
      c.t = t_broadcast(leader_link(am), bytes, N) +
            t_broadcast(intra_link(am), bytes, r);
      c.inter_bytes = 2.0 * bytes * (N - 1);
      break;
    }
    case CollAlgo::kCrossCluster: {
      // Broadcast across the cluster leaders, then inside every cluster.
      double t_in = 0, part_inter = 0;
      for (const GroupProfile::Part& pt : g.parts) {
        t_in = std::max(t_in, t_broadcast(part_link(pt), bytes, pt.size));
        part_inter += 2.0 * bytes * (pt.nodes - 1) * pt.size / p;
      }
      c.t = t_broadcast(cross_link(g), bytes, g.clusters) + t_in;
      c.inter_bytes = 2.0 * bytes * (g.clusters - 1) + part_inter;
      break;
    }
    case CollAlgo::kAuto:
      CA_ASSERT(false && "resolve_coll_algo first");
  }
  return c;
}

CollCost coll_allreduce_cost(const Machine& m, const GroupProfile& g,
                             const LinkParams& l, CollAlgo a, double bytes,
                             int p) {
  CollCost c;
  c.algo = coll_algo_name(a);
  c.bytes = bytes;
  if (p <= 1) return c;
  switch (a) {
    case CollAlgo::kPaperButterfly:
      c.t = t_allreduce(l, bytes, p);
      c.inter_bytes = 2.0 * bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRing:
      // Ring reduce-scatter + ring allgather.
      c.t = 2.0 * (l.alpha * (p - 1) + l.beta * bytes * (p - 1) / p);
      c.inter_bytes = 2.0 * bytes * (p - 1) * group_inter_frac(g);
      break;
    case CollAlgo::kRecursive: {
      // Rabenseifner: recursive-halving RS + recursive-doubling AG.
      const double q = pow2_ceil(p);
      c.t = 2.0 * (l.alpha * log2d(p) + l.beta * bytes * (q - 1) / q);
      c.inter_bytes = 2.0 * bytes * (q - 1) / q * p * group_inter_frac(g);
      break;
    }
    case CollAlgo::kHierarchical:
    case CollAlgo::kCrossCluster: {
      const CollCost rs =
          coll_reduce_scatter_cost(m, g, l, a, bytes, p, /*custom_tree=*/true);
      const CollCost ag = coll_allgather_cost(m, g, l, a, bytes, p);
      c.t = rs.t + ag.t;
      c.inter_bytes = rs.inter_bytes + ag.inter_bytes;
      break;
    }
    case CollAlgo::kAuto:
      CA_ASSERT(false && "resolve_coll_algo first");
  }
  return c;
}

}  // namespace ca3dmm::simmpi
