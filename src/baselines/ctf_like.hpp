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

  /// The cyclic layouts of untransposed operands (A as m x k, B as k x n),
  /// built once by make() like the native layouts.
  const BlockLayout& a_cyclic() const { return cyclic_a_; }
  const BlockLayout& b_cyclic() const { return cyclic_b_; }

 private:
  explicit CtfPlan(CosmaPlan base)
      : CosmaPlan(std::move(base)),
        cyclic_a_(BlockLayout::col_1d(m(), k(), nranks())),
        cyclic_b_(BlockLayout::col_1d(k(), n(), nranks())) {}

  BlockLayout cyclic_a_, cyclic_b_;
};

/// Appends world rank `rank`'s CTF-like schedule to `s`: remap into the
/// 1-D column layouts kCyclicA/B, then the COSMA-like pipeline with its
/// GEMM derated to `anchor`'s ctf_gemm_fraction.
void build_schedule(const CtfPlan& plan, int rank,
                    const simmpi::Machine& anchor, bool trans_a, bool trans_b,
                    Schedule& s);

/// C = op(A) x op(B) with the CTF-like pipeline; same calling convention as
/// ca3dmm_multiply.
template <typename T>
void ctf_multiply(simmpi::Comm& world, const CtfPlan& plan, bool trans_a,
                  bool trans_b, const BlockLayout& a_layout, const T* a_local,
                  const BlockLayout& b_layout, const T* b_local,
                  const BlockLayout& c_layout, T* c_local) {
  // A transposed operand is remapped in its stored shape, which the plan's
  // cached pair does not cover.
  const int P = plan.nranks();
  const BlockLayout a_t =
      trans_a ? BlockLayout::col_1d(plan.k(), plan.m(), P) : BlockLayout();
  const BlockLayout b_t =
      trans_b ? BlockLayout::col_1d(plan.n(), plan.k(), P) : BlockLayout();
  ScheduleIo<T> io;
  io.layouts[kCyclicA] = trans_a ? &a_t : &plan.a_cyclic();
  io.layouts[kCyclicB] = trans_b ? &b_t : &plan.b_cyclic();
  run_plan(world, plan, trans_a, trans_b, a_layout, a_local, b_layout,
           b_local, c_layout, c_local, io);
}

}  // namespace ca3dmm
