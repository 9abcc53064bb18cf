// CTF-like 2.5D baseline (paper §II, §IV-A).
//
// The Cyclops Tensor Framework implements the 2.5D algorithm for any number
// of processes, but "is not fine tuned for matrix multiplication" and "its
// process grid and matrix decomposition may be far from optimal" (paper
// §IV-A, citing [18]). This baseline reproduces those two properties:
//
//  * the grid comes from find_grid_ctf — a shape-oblivious folded processor
//    grid (near-square 2-D grid x replication depth), not the
//    surface-minimizing grid;
//  * each multiply pays an extra internal remapping pass: CTF redistributes
//    operands into its internal cyclic layout before computing, on top of
//    any user-layout conversion.
//
// A CtfPlan is a CosmaPlan on CTF's grid: the execution core is the same
// replicate/GEMM/reduce pipeline as the COSMA-like baseline, with the local
// GEMM derated to the machine's ctf_gemm_fraction, so the comparison
// isolates grid choice + remapping overhead — which is what Fig. 3's CTF
// curves show.
#pragma once

#include <utility>

#include "baselines/cosma_like.hpp"

namespace ca3dmm {

struct CtfPlan : CosmaPlan {
  static CtfPlan make(i64 m, i64 n, i64 k, int nranks) {
    return CtfPlan(
        CosmaPlan::make(m, n, k, nranks, find_grid_ctf(m, n, k, nranks)));
  }

  /// The cyclic layouts of the operands in their stored shape (A as m x k,
  /// or k x m if transposed; likewise B), built once by make() like the
  /// native layouts. run_plan binds them to kCyclicA/B.
  const BlockLayout& a_cyclic(bool trans) const { return cyclic_a_[trans]; }
  const BlockLayout& b_cyclic(bool trans) const { return cyclic_b_[trans]; }

 private:
  explicit CtfPlan(CosmaPlan base)
      : CosmaPlan(std::move(base)),
        cyclic_a_{BlockLayout::col_1d(m(), k(), nranks()),
                  BlockLayout::col_1d(k(), m(), nranks())},
        cyclic_b_{BlockLayout::col_1d(k(), n(), nranks()),
                  BlockLayout::col_1d(n(), k(), nranks())} {}

  BlockLayout cyclic_a_[2], cyclic_b_[2];
};

/// Appends world rank `rank`'s CTF-like schedule to `s`: remap into the
/// 1-D column layouts kCyclicA/B, then the COSMA-like pipeline with its
/// GEMM derated to `anchor`'s ctf_gemm_fraction.
void build_schedule(const CtfPlan& plan, int rank,
                    const simmpi::Machine& anchor, bool trans_a, bool trans_b,
                    Schedule& s);

}  // namespace ca3dmm
