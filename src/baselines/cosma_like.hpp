// COSMA-like PGEMM baseline (paper §III-C).
//
// The CA3DMM paper analyzes what the COSMA *source code* actually does:
//
//   "The COSMA source code first finds an optimal or near-optimal 3D process
//    grid p_m x p_k x p_n s.t. m/p_m ~ k/p_k ~ n/p_n by enumerating all
//    possible solutions. ... Then, the COSMA source code factorizes p_m,
//    p_n, and p_k to obtain its parallel strategy containing one or multiple
//    steps. ... In general, COSMA first replicates A and/or B in one or
//    multiple steps using all-gather operations, then calculates one local
//    matrix multiplication to obtain a partial C result block on each
//    process, and finally reduces the partial C results to get the final C
//    matrix."
//
// That is exactly what this baseline implements: an unconstrained 3-D grid,
// a largest-dimension-first multi-way splitting strategy, full all-gather
// replication of A (across the p_n groups) and B (across the p_m groups),
// one local GEMM, and a reduce-scatter across the p_k groups. The butterfly
// collective cost model equals the cost of COSMA's stepped binary trees, so
// the virtual timings represent COSMA's communication faithfully.
//
// Unlike CA3DMM, all replication completes before any computation (no
// pipelining), and there is no Cannon-compatibility constraint on the grid.
#pragma once

#include <vector>

#include "core/grid_solver.hpp"
#include "core/schedule.hpp"
#include "layout/block_layout.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm {

/// One strategy step: dimension 'm' / 'n' / 'k' split `ways` ways.
struct CosmaStep {
  char dim;
  int ways;
};

class CosmaPlan {
 public:
  i64 m() const { return m_; }
  i64 n() const { return n_; }
  i64 k() const { return k_; }
  int nranks() const { return nranks_; }
  const ProcGrid& grid() const { return grid_; }
  int active() const { return grid_.active(); }
  const std::vector<CosmaStep>& steps() const { return steps_; }

  /// Grid-block indices of an active world rank (mi in [0, pm), etc.); the
  /// assignment follows the hierarchical strategy, so ranks that share late
  /// splits are close in rank space (and therefore in node space).
  struct Codes {
    bool active = false;
    int mi = 0, ni = 0, ki = 0;
  };
  Codes codes(int world_rank) const;

  Range m_leaf(int mi) const { return block_range(m_, grid_.pm, mi); }
  Range n_leaf(int ni) const { return block_range(n_, grid_.pn, ni); }
  Range k_leaf(int ki) const { return block_range(k_, grid_.pk, ki); }

  /// Initial distributions: each rank owns a 1/p_n row slice of its A leaf
  /// block and a 1/p_m row slice of its B leaf block; final C is the 1/p_k
  /// row slice of the leaf C block. *_rect(r) is rank r's one rect.
  Rect a_rect(int world_rank) const;
  Rect b_rect(int world_rank) const;
  Rect c_rect(int world_rank) const;
  const BlockLayout& a_native() const { return natives_.a; }
  const BlockLayout& b_native() const { return natives_.b; }
  const BlockLayout& c_native() const { return natives_.c; }

  /// Builds grid + strategy. `force_grid` mirrors Table II experiments.
  static CosmaPlan make(i64 m, i64 n, i64 k, int nranks,
                        std::optional<ProcGrid> force_grid = {});

  /// CARMA variant (paper §II): the number of processes must be a power of
  /// two; the strategy is a sequence of bisections of the currently largest
  /// dimension, and the 3-D grid is whatever those bisections produce. With
  /// power-of-two P this matches COSMA's grid for most shapes, which is the
  /// comparison the COSMA paper (and §I here) discusses.
  static CosmaPlan make_carma(i64 m, i64 n, i64 k, int nranks);

 private:
  i64 m_ = 0, n_ = 0, k_ = 0;
  int nranks_ = 0;
  ProcGrid grid_;
  std::vector<CosmaStep> steps_;
  NativeLayouts natives_;  ///< built once by make()
};

/// Appends world rank `rank`'s COSMA-like schedule to `s` (`anchor` is
/// unused: it is part of every plan's build_schedule signature).
void build_schedule(const CosmaPlan& plan, int rank,
                    const simmpi::Machine& anchor, bool trans_a, bool trans_b,
                    Schedule& s);

/// The pipeline between the two redistributions: replicate A and B, one
/// local GEMM charged at `gemm_fraction` of the machine's GEMM rate, reduce
/// partial C. Appends world rank `rank`'s share to `s` and returns the slot
/// holding its native C block.
int cosma_pipeline(const CosmaPlan& plan, int rank, double gemm_fraction,
                   Schedule& s);

}  // namespace ca3dmm
