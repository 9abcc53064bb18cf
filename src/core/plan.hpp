// CA3DMM execution plan (paper §III-B, Algorithm 1).
//
// A plan fixes, for a given (m, n, k, P):
//   * the 3-D process grid pm x pn x pk (grid_solver),
//   * the decomposition of the active processes into pk k-task groups of
//     pm x pn processes, each covered by c = max(pm,pn)/min(pm,pn) Cannon
//     groups of s^2 processes (s = min(pm,pn)),
//   * the library-native initial distributions of A and B and the final
//     distribution of C (the distributions of paper Fig. 2),
//   * the block ranges every phase works on.
//
// Rank organization is "column-major" (paper §III-B): processes of the same
// k-task group and the same Cannon group have contiguous world ranks; within
// a Cannon group, rank index q = j*s + i (i = Cannon row, fastest).
//
// Replication granularity: the replicas of a pre-skew Cannon block of the
// replicated operand are the c processes with the same (i, j) across the c
// Cannon groups of a k-task group; each initially stores a 1/c slice of the
// block, split along the k dimension, and an all-gather over those c
// processes reconstructs the full block (paper §III-B). This is the scheme
// consistent with the paper's storage analysis (eq. 11): every process
// initially holds exactly (mk + kn)/P elements of A and B.
//
// Note: the prose of the paper's Example 1 describes replication at
// whole-k-panel granularity, which contradicts eq. (11)'s initial-storage
// accounting by a factor of c; we implement the eq.-(11)-consistent scheme.
#pragma once

#include <optional>
#include <vector>

#include "core/grid_solver.hpp"
#include "layout/block_layout.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm {

/// User-facing algorithm options.
struct Ca3dmmOptions {
  GridOptions grid{};
  /// Inner 2-D engine: Cannon (paper default) or SUMMA (§III-E ablation).
  bool use_summa = false;
  /// Multi-shift aggregation: Cannon accumulates shifted panels until their
  /// combined k extent reaches this value before running one local GEMM
  /// (paper §III-F "we perform multiple shifts for one local matrix
  /// multiplication if A and B blocks ... do not have a large enough
  /// k-dimension size").
  i64 min_kblk = 192;
  /// Overrides the solver's grid (Table II experiments).
  std::optional<ProcGrid> force_grid{};
  /// Collective schedules for the replication all-gather and the partial-C
  /// reduce-scatter — the two collectives that dominate CA3DMM's
  /// communication (§III-D). Unset (the default) leaves the communicators
  /// on whatever the cluster/world configuration says, i.e. the paper's
  /// butterfly model; setting it overrides the repl/reduce communicators on
  /// every call. The cost model prices the same schedule (an unset config
  /// as the paper butterfly), keeping prediction and execution consistent
  /// by construction.
  std::optional<simmpi::CollectiveConfig> coll{};
  /// Protect the Cannon point-to-point traffic (skews and circular shifts)
  /// with ABFT checksum trailers (resilience/abft.hpp): any single byte
  /// corrupted in transit — what FaultPlan::FlipPayload injects — is
  /// corrected in place, and multi-byte corruption raises an error instead
  /// of silently producing a wrong C. Adds O(log payload) bytes per message
  /// plus one encode/decode scan per side, priced by the cost model. No-op
  /// for the SUMMA engine (collectives carry its panels, and the fault
  /// injector only corrupts point-to-point messages).
  bool abft = false;
  /// Dual-buffer communication/computation overlap in the 2-D engine
  /// (Cannon shifts and SUMMA panel broadcasts pipelined behind the local
  /// GEMM). On — the paper's behaviour — by default; the tuner searches
  /// both settings because overlap costs memory bandwidth the GEMM also
  /// wants (Machine::overlap_efficiency) and the cost model prices the
  /// trade both ways.
  bool overlap = true;
  /// Per-k-task-group compute weights for heterogeneous topologies: entry
  /// gk sizes k-task group gk's k slice proportionally (weights need not be
  /// normalized). Empty (the default) = the homogeneous equal split. Must
  /// be empty or have exactly pk positive entries; use
  /// make_hetero_options (core/hetero.hpp) to derive them from a Topology.
  /// Affects only the k partitioning — the m/n block ranges and the Cannon
  /// structure inside each k-task group are unchanged, so the computed C is
  /// bit-identical to the unweighted plan's.
  std::vector<double> k_weights{};

  /// Member-wise comparison: plans built from equal options on equal problem
  /// dimensions are interchangeable, which is what the engine's plan cache
  /// keys on; the order lets the cost oracle key on a costmodel::Workload.
  friend auto operator<=>(const Ca3dmmOptions&, const Ca3dmmOptions&) = default;
};

/// Placement of one world rank in the CA3DMM topology.
struct RankCoord {
  bool active = false;
  int gk = 0;  ///< k-task group index in [0, pk)
  int gc = 0;  ///< Cannon group index within the k-task group, in [0, c)
  int i = 0;   ///< Cannon grid row in [0, s)
  int j = 0;   ///< Cannon grid column in [0, s)
  int I = 0;   ///< global m-block index in [0, pm)
  int J = 0;   ///< global n-block index in [0, pn)
};

class Ca3dmmPlan {
 public:
  Ca3dmmPlan() = default;

  i64 m() const { return m_; }
  i64 n() const { return n_; }
  i64 k() const { return k_; }
  int nranks() const { return nranks_; }
  /// The options this plan was built with. Execution reads them from here
  /// (use_summa, min_kblk), so a plan can never be run with options other
  /// than the ones that shaped its grid.
  const Ca3dmmOptions& options() const { return opt_; }
  const ProcGrid& grid() const { return grid_; }
  int active() const { return grid_.active(); }
  int c() const { return grid_.c(); }
  int s() const { return grid_.s(); }
  /// True if A is the replicated operand (pn > pm); else B is (when c > 1).
  bool replicates_a() const { return grid_.replicates_a(); }

  RankCoord coord(int world_rank) const;
  /// Inverse of coord() for active ranks.
  int rank_of(int gk, int gc, int i, int j) const;

  // ---- block ranges ----
  Range m_range(int I) const { return block_range(m_, grid_.pm, I); }
  Range n_range(int J) const { return block_range(n_, grid_.pn, J); }
  /// k-range of k-task group gk (paper: each group computes a
  /// rank-(k/pk) update). With Ca3dmmOptions::k_weights set, group gk's
  /// slice is proportional to its weight (cumulative rounding, so slices
  /// tile [0, k) exactly); kpart/ksub and the native layouts all derive
  /// from this range, so the weighting propagates through the whole plan.
  Range k_range(int gk) const;
  /// Cannon k-part t (in [0, s)) of k-task group gk.
  Range kpart(int gk, int t) const;
  /// Replication slice g (in [0, c)) of Cannon k-part t.
  Range ksub(int gk, int t, int g) const;
  /// Final-C column slice of n-block J owned by k-task group gk after the
  /// reduce-scatter (paper Example 2: column partitioning).
  Range c_sub_cols(int J, int gk) const;

  // ---- library-native distributions over all nranks world ranks ----
  /// The one rect of A / B / C `world_rank` owns natively (empty on idle
  /// ranks); the *_native() layouts are these rects over all ranks.
  Rect a_rect(int world_rank) const;
  Rect b_rect(int world_rank) const;
  Rect c_rect(int world_rank) const;
  const BlockLayout& a_native() const { return natives_.a; }
  const BlockLayout& b_native() const { return natives_.b; }
  const BlockLayout& c_native() const { return natives_.c; }

  /// Communication volume lower bound (paper eq. 3), in elements.
  double volume_lower_bound() const;
  /// Per-process communication volume of this plan, in elements (paper eq. 9
  /// generalized to non-cubic grids).
  double comm_volume_per_rank() const;

  static Ca3dmmPlan make(i64 m, i64 n, i64 k, int nranks,
                         const Ca3dmmOptions& opt = {});

 private:
  i64 m_ = 0, n_ = 0, k_ = 0;
  int nranks_ = 0;
  Ca3dmmOptions opt_{};
  ProcGrid grid_;
  NativeLayouts natives_;  ///< built once by make()
};

}  // namespace ca3dmm
