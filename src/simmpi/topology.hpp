// Heterogeneous multi-cluster machine topology.
//
// The original machine model assumed one homogeneous Machine for every node
// and derived a rank's node by integer division (Machine::node_of_rank).
// That breaks down in two ways the simulator now has to handle:
//
//  * Mixed clusters: FlagCX-style deployments join a CPU cluster and a GPU
//    cluster (different GEMM rates, NIC bandwidths, ranks per node) through
//    an inter-cluster link that is slower than either cluster's fabric. A
//    collective spanning both must be priced as intra-cluster phases plus an
//    inter-cluster exchange, not with one blended alpha/beta.
//  * Shrink-and-replan: after ResilientRunner removes failed ranks, the
//    survivors are renumbered contiguously, so `rank / ranks_per_node` no
//    longer names the *physical* node a rank runs on. Straggler attribution
//    and trace pids must follow the physical placement, which only an
//    explicit rank -> (cluster, node) map can provide.
//
// A Topology is that map: an ordered list of clusters (each with its own
// Machine and contiguous world-rank range), an inter-cluster link, and
// per-rank cluster/node vectors with globally unique physical node ids.
// Topology::homogeneous wraps the legacy single-Machine model so every
// existing call site keeps its exact semantics; restricted_to() builds the
// survivor topology of a shrink while *pinning* physical node ids.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/machine.hpp"

namespace ca3dmm::simmpi {

/// One homogeneous cluster inside a Topology: `nranks` contiguous world
/// ranks on nodes described by `machine` (ranks_per_node ranks per node).
struct ClusterSpec {
  std::string name;  ///< for traces and tables ("cpu", "gpu", ...)
  Machine machine{};
  int nranks = 0;

  friend bool operator==(const ClusterSpec&, const ClusterSpec&) = default;
};

/// Alpha-beta parameters of the link joining any two clusters (one shared
/// inter-cluster fabric, the FlagCX hybrid-runner model: every cross-cluster
/// exchange pays this link regardless of which pair of clusters it joins).
struct InterClusterLink {
  double alpha = 5e-6;       ///< per-message latency (s)
  double bandwidth = 5e9;    ///< per-rank bandwidth (B/s)

  double beta() const { return 1.0 / bandwidth; }

  friend bool operator==(const InterClusterLink&,
                         const InterClusterLink&) = default;
};

class Topology {
 public:
  /// Default: empty (0 ranks). Use homogeneous() or make().
  Topology() = default;

  /// The legacy model: one cluster of `nranks` ranks of `machine`, node ids
  /// `rank / ranks_per_node`. Bit-compatible with the pre-Topology code.
  static Topology homogeneous(int nranks, Machine machine);

  /// Joins `clusters` (world ranks assigned contiguously, cluster 0 first)
  /// through `link`. Node ids are globally unique across clusters.
  static Topology make(std::vector<ClusterSpec> clusters,
                       InterClusterLink link = {});

  int nranks() const { return static_cast<int>(cluster_of_.size()); }
  int nclusters() const { return static_cast<int>(clusters_.size()); }
  const ClusterSpec& cluster(int c) const { return clusters_.at(c); }
  const InterClusterLink& link() const { return link_; }
  bool single_cluster() const { return nclusters() <= 1; }

  /// Anchor machine: cluster 0's Machine. Legacy call sites that need "the"
  /// machine of a cluster-wide object (e.g. alltoallv derating factors of a
  /// world communicator) use this; it is what `Cluster::machine()` returns.
  const Machine& machine() const;
  const Machine& machine_of_cluster(int c) const {
    return clusters_.at(c).machine;
  }
  const Machine& machine_of_rank(int world_rank) const {
    return clusters_[cluster_of_rank(world_rank)].machine;
  }

  int cluster_of_rank(int world_rank) const {
    return cluster_of_.at(world_rank);
  }
  /// Globally unique *physical* node id of a world rank. Unlike
  /// Machine::node_of_rank this survives restricted_to(): a survivor keeps
  /// the node id it had before the shrink.
  int node_of_rank(int world_rank) const { return node_of_.at(world_rank); }
  /// Number of distinct physical node ids present (nodes that lost all
  /// their ranks to a shrink are not counted).
  int nnodes() const;
  /// Sorted distinct physical node ids (trace process enumeration).
  std::vector<int> node_ids() const;
  /// Cluster owning physical node `node` (-1 if no rank lives there).
  int cluster_of_node(int node) const;

  /// Survivor topology after a shrink: new world rank r maps to old world
  /// rank `survivors[r]` and inherits its *physical* cluster and node ids.
  /// `survivors` must be sorted ascending and name valid old ranks.
  Topology restricted_to(const std::vector<int>& survivors) const;

  /// Deterministic hash of everything that changes collective/GEMM pricing:
  /// cluster count and sizes, each cluster's machine parameters that feed
  /// the cost model, and the inter-cluster link. Returns 0 for a topology
  /// indistinguishable from Topology::homogeneous of its cluster-0 machine,
  /// so legacy tuner keys (which carried no topology hash) stay valid.
  std::uint64_t signature() const;

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  std::vector<ClusterSpec> clusters_;
  InterClusterLink link_{};
  std::vector<int> cluster_of_;  ///< per world rank
  std::vector<int> node_of_;     ///< per world rank, physical id
};

}  // namespace ca3dmm::simmpi
