#include "simmpi/topology.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm::simmpi {

Topology Topology::homogeneous(int nranks, Machine machine) {
  CA_REQUIRE(nranks > 0, "topology needs at least one rank, got %d", nranks);
  ClusterSpec spec;
  spec.name = "cluster0";
  spec.machine = machine;
  spec.nranks = nranks;
  return make({std::move(spec)});
}

Topology Topology::make(std::vector<ClusterSpec> clusters,
                        InterClusterLink link) {
  CA_REQUIRE(!clusters.empty(), "topology needs at least one cluster");
  Topology t;
  t.link_ = link;
  int node_base = 0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const ClusterSpec& spec = clusters[c];
    CA_REQUIRE(spec.nranks > 0, "cluster %zu has %d ranks", c, spec.nranks);
    CA_REQUIRE(spec.machine.ranks_per_node >= 1,
               "cluster %zu has ranks_per_node %d", c,
               spec.machine.ranks_per_node);
    const int rpn = spec.machine.ranks_per_node;
    for (int r = 0; r < spec.nranks; ++r) {
      t.cluster_of_.push_back(static_cast<int>(c));
      t.node_of_.push_back(node_base + r / rpn);
    }
    node_base += (spec.nranks + rpn - 1) / rpn;
  }
  t.clusters_ = std::move(clusters);
  return t;
}

const Machine& Topology::machine() const {
  CA_REQUIRE(!clusters_.empty(), "empty topology has no machine");
  return clusters_.front().machine;
}

int Topology::nnodes() const { return static_cast<int>(node_ids().size()); }

std::vector<int> Topology::node_ids() const {
  std::vector<int> ids = node_of_;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

int Topology::cluster_of_node(int node) const {
  for (int r = 0; r < nranks(); ++r)
    if (node_of_[r] == node) return cluster_of_[r];
  return -1;
}

Topology Topology::restricted_to(const std::vector<int>& survivors) const {
  CA_REQUIRE(!survivors.empty(), "restricted_to needs at least one survivor");
  Topology t;
  t.clusters_ = clusters_;
  t.link_ = link_;
  t.cluster_of_.reserve(survivors.size());
  t.node_of_.reserve(survivors.size());
  int prev = -1;
  for (const int old : survivors) {
    CA_REQUIRE(old >= 0 && old < nranks(), "survivor rank %d out of range",
               old);
    CA_REQUIRE(old > prev, "survivor list must be strictly ascending");
    prev = old;
    t.cluster_of_.push_back(cluster_of_[old]);
    t.node_of_.push_back(node_of_[old]);
  }
  // Per-cluster rank counts shrink with the survivors; the Machines (and
  // hence node capacity / rates) describe the hardware and stay put.
  for (size_t c = 0; c < t.clusters_.size(); ++c) {
    int count = 0;
    for (const int cl : t.cluster_of_)
      if (cl == static_cast<int>(c)) ++count;
    t.clusters_[c].nranks = count;
  }
  return t;
}

namespace {

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mixd(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return mix64(h, bits);
}

}  // namespace

std::uint64_t Topology::signature() const {
  if (single_cluster()) {
    // Indistinguishable from the legacy model iff the node map is the plain
    // contiguous division (restricted_to can break that even for one
    // cluster).
    const int rpn = machine().ranks_per_node;
    bool legacy = true;
    for (int r = 0; r < nranks() && legacy; ++r)
      legacy = node_of_[r] == r / rpn;
    if (legacy) return 0;
  }
  std::uint64_t h = mix64(0x4334444d4du /* "C3DMM" */, nclusters());
  h = mixd(h, link_.alpha);
  h = mixd(h, link_.bandwidth);
  for (const ClusterSpec& c : clusters_) {
    const Machine& m = c.machine;
    h = mix64(h, static_cast<std::uint64_t>(c.nranks));
    h = mix64(h, static_cast<std::uint64_t>(m.ranks_per_node));
    h = mix64(h, m.use_gpu ? 1 : 0);
    h = mix64(h, static_cast<std::uint64_t>(m.threads_per_rank));
    h = mixd(h, m.alpha_inter);
    h = mixd(h, m.alpha_intra);
    h = mixd(h, m.nic_bandwidth);
    h = mixd(h, m.mem_bandwidth);
    h = mixd(h, m.flops_per_core);
    h = mixd(h, m.gpu_flops);
    h = mixd(h, m.pcie_bandwidth);
  }
  for (const int n : node_of_) h = mix64(h, static_cast<std::uint64_t>(n));
  return h == 0 ? 1 : h;
}

}  // namespace ca3dmm::simmpi
