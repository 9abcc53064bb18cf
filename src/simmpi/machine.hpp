// Machine model for the simulated cluster.
//
// The paper evaluates CA3DMM on the Georgia Tech PACE-Phoenix cluster (dual
// 12-core Xeon Gold 6226 per node, 100 Gbps InfiniBand, optional 2x V100 per
// node). This struct captures that machine as an alpha-beta model plus a few
// node-level effects the paper's analysis depends on:
//
//  * NIC sharing: ranks on the same node share the node's network bandwidth.
//    A single rank per node (MPI+OpenMP mode) drives only a fraction of the
//    NIC (message-rate bound); two or more concurrent ranks saturate it.
//    This is the mechanism the paper cites for the Fig. 4 pure-MPI vs hybrid
//    differences ("communication operations from different MPI processes in
//    the same node can overlap with each other and better utilize inter-node
//    network bandwidth").
//  * Intra-node messages move through shared memory at memory bandwidth,
//    which is why contiguous ("column-major") rank placement makes Cannon's
//    neighbor shifts partially free of network traffic.
//  * A GPU device model (used by Table III): local GEMM runs at V100-like
//    rate with PCIe staging, and reduce-scatter suffers a penalty above a
//    message-size threshold, reproducing the MVAPICH2 behaviour the paper
//    reports for the GPU square / large-K cases.
//
// All simulated time in seconds, sizes in bytes, rates in bytes/s or flop/s.
#pragma once

#include <cstdint>

namespace ca3dmm::simmpi {

struct Machine {
  // --- network ---
  double alpha_inter = 1.5e-6;   ///< inter-node latency per message (s)
  double alpha_intra = 0.3e-6;   ///< intra-node latency per message (s)
  double nic_bandwidth = 12.5e9; ///< node NIC bandwidth (B/s), 100 Gbps IB
  double mem_bandwidth = 80e9;   ///< node memory bandwidth for intra-node copies (B/s)
  /// Fraction of NIC bandwidth a single communicating rank per node achieves.
  double single_rank_nic_fraction = 0.55;

  // --- node composition ---
  int cores_per_node = 24;
  int ranks_per_node = 24;   ///< 24 = pure MPI, 1 = MPI+OpenMP hybrid, 2 = GPU runs
  int threads_per_rank = 1;  ///< OpenMP threads used by the local GEMM

  // --- compute ---
  double flops_per_core = 60e9;       ///< sustained local DGEMM rate per core
  double peak_flops_per_core = 86.4e9;///< nominal peak (for %-of-peak plots)
  double omp_gemm_efficiency = 0.90;  ///< multi-thread GEMM parallel efficiency
  double gemm_call_overhead = 3e-6;   ///< fixed cost per local GEMM invocation (s)
  /// Fraction of in-flight communication a dual-buffered GEMM can actually
  /// hide. Overlap is never perfect on real systems (MPI progress needs CPU
  /// cycles; transfers contend with the GEMM for memory bandwidth), and
  /// assuming it is would make plain 2-D grids — whose shifts hide entirely
  /// behind large local GEMMs — look better than the 3-D grids the paper
  /// demonstrates are superior.
  double overlap_efficiency = 0.75;

  // --- all-to-all (redistribution) behaviour ---
  /// Personalized all-to-alls at scale run far from the alpha-beta optimum:
  /// each rank exchanges P-1 small pieces (message-rate bound, incast
  /// congestion), and the paper's redistribution subroutine "does not have
  /// other optimizations" (§III-F). These factors inflate the latency and
  /// bandwidth terms of t_alltoallv for multi-node groups; they are what
  /// make the Fig. 3b/3c "custom layout" conversion cost visible. They
  /// price non-identity conversions only: an identity conversion (native
  /// layouts in and out, layout/redistribute.hpp is_identity) is a local
  /// copy and runs no alltoallv.
  double alltoallv_alpha_factor = 8.0;
  double alltoallv_beta_factor = 4.0;

  // --- CTF baseline behaviour ---
  /// Fraction of the local GEMM rate the CTF baseline achieves. The paper:
  /// "CTF is not fine tuned for matrix multiplication" (§IV-A) and "the GPU
  /// acceleration of CTF is still in development" (§IV-C) — its cyclic
  /// tensor layouts and immature device path keep local contractions far
  /// from vendor-BLAS speed.
  double ctf_gemm_fraction_cpu = 0.55;
  double ctf_gemm_fraction_gpu = 0.12;

  double ctf_gemm_fraction() const {
    return use_gpu ? ctf_gemm_fraction_gpu : ctf_gemm_fraction_cpu;
  }

  // --- GPU device (Table III) ---
  bool use_gpu = false;
  double gpu_flops = 6.2e12;        ///< sustained V100 DGEMM rate
  double gpu_peak_flops = 7.8e12;   ///< V100 FP64 peak
  double pcie_bandwidth = 11e9;     ///< host<->device staging bandwidth
  double gpu_gemm_overhead = 15e-6; ///< kernel-launch + cuBLAS setup cost per call
  /// MVAPICH2-like reduce-scatter degradation for large per-message blocks
  /// (paper §IV-C: "the partial C result block is larger than a threshold in
  /// MVAPICH2, which degrades the performance of reduce-scatter").
  double rs_penalty_threshold_bytes = 48.0 * 1024 * 1024;
  double rs_penalty_factor = 1.8;

  /// Simulated node id of a world rank (contiguous rank placement, matching
  /// the paper's "column-major" process organization). Only valid for the
  /// homogeneous, never-shrunk model: heterogeneous clusters and
  /// shrink-and-replan survivors need the explicit rank -> (cluster, node)
  /// map of Topology (topology.hpp), which is what the engine threads
  /// through Cluster/Comm/GroupProfile. This stays as the seed of
  /// Topology::homogeneous and for hand-built unit-test profiles.
  int node_of_rank(int world_rank) const { return world_rank / ranks_per_node; }

  /// Time for one local GEMM of `flops` floating point operations that
  /// touches `bytes` of operand/result data (bytes only matters for the GPU
  /// device, which stages operands over PCIe).
  double gemm_time(double flops, double bytes) const {
    if (use_gpu)
      return gpu_gemm_overhead + flops / gpu_flops + bytes / pcie_bandwidth;
    return gemm_call_overhead + flops / rank_flops();
  }

  /// Aggregate sustained compute rate of one rank (flop/s).
  double rank_flops() const {
    if (use_gpu) return gpu_flops;
    if (threads_per_rank > 1)
      return flops_per_core * threads_per_rank * omp_gemm_efficiency;
    return flops_per_core;
  }

  /// Nominal peak flop/s of one rank, used for %-of-peak reporting.
  double rank_peak_flops() const {
    if (use_gpu) return gpu_peak_flops;
    return peak_flops_per_core * threads_per_rank;
  }

  /// Effective per-rank inter-node bandwidth (B/s) under the bulk-synchronous
  /// assumption that all `ranks_per_node` ranks of a node communicate
  /// concurrently and share the NIC.
  double inter_rank_bandwidth() const {
    const int r = ranks_per_node;
    const double share = (r == 1) ? single_rank_nic_fraction : 1.0;
    return nic_bandwidth * share / r;
  }

  /// Effective per-rank intra-node bandwidth (B/s); node memory bandwidth is
  /// shared by all ranks of the node.
  double intra_rank_bandwidth() const {
    return mem_bandwidth / ranks_per_node;
  }

  // ---- presets ----

  /// PACE-Phoenix-like CPU node, pure MPI (one rank per core).
  static Machine phoenix_mpi();
  /// PACE-Phoenix-like CPU node, MPI+OpenMP (one rank per node, 24 threads).
  static Machine phoenix_hybrid();
  /// PACE-Phoenix-like GPU node (two V100 per node, one rank per GPU).
  static Machine phoenix_gpu();
  /// Trivial parameters (alpha/beta/rate all simple powers of ten) used by
  /// unit tests that assert exact virtual-time values.
  static Machine unit_test();
};

}  // namespace ca3dmm::simmpi
