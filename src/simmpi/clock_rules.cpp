#include "simmpi/clock_rules.hpp"

namespace ca3dmm::simmpi {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kRedistribute: return "redistribute";
    case Phase::kReplicate: return "replicate A/B";
    case Phase::kShift: return "2D engine comm";
    case Phase::kCompute: return "local compute";
    case Phase::kReduce: return "reduce C";
    case Phase::kMisc: return "misc";
    default: return "?";
  }
}

double p2p_time(const Topology& topo, int src, int dst, double bytes,
                double slowdown) {
  const double t =
      topo.cluster_of_rank(src) != topo.cluster_of_rank(dst)
          ? topo.link().alpha + bytes * topo.link().beta()
          : t_p2p(topo.machine_of_rank(src), bytes,
                  topo.node_of_rank(src) == topo.node_of_rank(dst));
  return t * slowdown;
}

GroupPricing::GroupPricing(const Topology& topo,
                           const std::vector<int>& members,
                           const CollectiveConfig& cfg)
    : prof(GroupProfile::from_topology(topo, members)),
      link(group_link(topo.machine(), prof)),
      cfg(cfg),
      anchor(&topo.machine()) {}

CollAlgo GroupPricing::pick(CollAlgo configured, double bytes) const {
  return resolve_coll_algo(configured, prof, bytes, cfg.small_message_bytes);
}

CollCost GroupPricing::bcast(double bytes) const {
  return coll_bcast_cost(*anchor, prof, link, pick(cfg.bcast, bytes), bytes,
                         prof.size);
}

CollCost GroupPricing::allgather(double total) const {
  return coll_allgather_cost(*anchor, prof, link, pick(cfg.allgather, total),
                             total, prof.size);
}

CollCost GroupPricing::reduce_scatter(double bytes, bool custom_tree) const {
  return coll_reduce_scatter_cost(*anchor, prof, link,
                                  pick(cfg.reduce_scatter, bytes), bytes,
                                  prof.size, custom_tree);
}

CollCost GroupPricing::allreduce(double bytes) const {
  return coll_allreduce_cost(*anchor, prof, link, pick(cfg.allreduce, bytes),
                             bytes, prof.size);
}

CollCost GroupPricing::alltoallv(const A2aVolume& v) const {
  CollCost c;
  c.t = t_alltoallv_machine(*anchor, link, v.max_bytes, prof.size,
                            prof.single_node);
  c.inter_bytes = v.off_self * group_inter_frac(prof);
  return c;
}

CollCost GroupPricing::split() const {
  return coll_allgather_cost(*anchor, prof, link, CollAlgo::kPaperButterfly,
                             8.0 * prof.size, prof.size);
}

}  // namespace ca3dmm::simmpi
