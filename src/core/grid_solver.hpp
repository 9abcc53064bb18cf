// 3-D process grid selection (paper §III-A/§III-B).
//
// CA3DMM enumerates all grids p_m x p_k x p_n and picks the one minimizing
// the total subdomain surface area
//
//     S_total = 2 (p_m k n + p_n m k + p_k m n)                       (4)
//
// subject to
//
//     floor(l P) <= p_m p_k p_n <= P                                  (5)
//     mod(max(p_m, p_n), min(p_m, p_n)) == 0                          (7)
//
// with the sub-target of maximizing p_m p_k p_n (6) at lower priority.
// Constraint (7) is what lets each k-task group be covered by c = max/min
// square Cannon groups; it is dropped for the SUMMA-based variant and for
// the COSMA-like baseline.
#pragma once

#include <compare>
#include <optional>
#include <vector>

#include "common/partition.hpp"

namespace ca3dmm {

/// A 3-D process grid: pm x pn x pk processes along m / n / k.
struct ProcGrid {
  int pm = 1;
  int pn = 1;
  int pk = 1;

  int active() const { return pm * pn * pk; }
  /// Cannon-group replication factor c = max(pm,pn)/min(pm,pn) (paper eq. 8).
  int c() const { return pm > pn ? pm / pn : pn / pm; }
  /// Cannon grid size s = min(pm, pn).
  int s() const { return pm < pn ? pm : pn; }
  /// True iff A must be replicated across Cannon groups (pn > pm);
  /// otherwise B is the replicated operand when c > 1.
  bool replicates_a() const { return pn > pm; }

  friend bool operator==(const ProcGrid&, const ProcGrid&) = default;
  friend auto operator<=>(const ProcGrid&, const ProcGrid&) = default;
};

/// Exact total surface (eq. 4) evaluated with real block sizes: uses
/// ceil-based block extents so that grids larger than a dimension are
/// penalized correctly.
double grid_surface(i64 m, i64 n, i64 k, const ProcGrid& g);

struct GridOptions {
  /// Utilization lower bound l of constraint (5); the paper uses 0.95.
  double l = 0.95;
  /// Enforce the Cannon compatibility constraint (7).
  bool cannon_compatible = true;
  /// Optional per-process memory budget in elements (0 = unlimited). The
  /// paper's §V discusses "controlling the usage of extra memory in CA3DMM
  /// while minimizing communication costs" and proposes reducing the number
  /// of k-task groups; this implements that: only grids whose eq.-(11)
  /// working set fits the budget are considered, which pushes the solver
  /// toward 2-D (small p_k, small c) grids as the budget tightens.
  i64 max_memory_elems = 0;
  /// Weight of communicated elements against flops in the grid objective.
  /// The paper's stated objective is pure surface minimization (4), but the
  /// grids its implementation reports (Tables II/III) are only consistent
  /// with an objective that also values utilization: idling 5% of processes
  /// to shave 1% of communication is never chosen. Minimizing
  ///     mnk/active + ratio * per_process_surface
  /// reproduces every verifiable paper grid for ratio in (47, 200); 100 is
  /// the midpoint and roughly the flops-per-transferred-element balance of
  /// the paper's testbed.
  double flop_word_ratio = 100.0;

  friend bool operator==(const GridOptions&, const GridOptions&) = default;
  friend auto operator<=>(const GridOptions&, const GridOptions&) = default;
};

/// The solver's objective for one grid: estimated per-process cost in flop
/// units, mnk/active + flop_word_ratio * per-process surface (ceil-based
/// block extents). Exposed for tests and for the baselines' grid choosers.
double grid_objective(i64 m, i64 n, i64 k, const ProcGrid& g,
                      double flop_word_ratio = 100.0);

/// Paper eq. (11): per-process working-set estimate of CA3DMM on this grid,
/// in elements — 2(c mk + kn)/P_active + p_k mn/P_active for the
/// A-replicated orientation, symmetric otherwise. Used by the
/// memory-constrained solver mode (the paper's §V first open problem).
double grid_memory_elems(i64 m, i64 n, i64 k, const ProcGrid& g);

/// Finds the optimal or near-optimal grid for a (m x k) x (k x n) product on
/// P processes. Deterministic; ties are broken by (larger active process
/// count, smaller surface with exact block sizes, smaller pk, smaller c,
/// smaller pm).
ProcGrid find_grid(i64 m, i64 n, i64 k, int P, const GridOptions& opt = {});

/// Up to `count` distinct feasible grids ranked by the solver's fitness,
/// best first — candidates[0] is exactly find_grid()'s choice. This is the
/// auto-tuner's search neighbourhood around the eq.-solver optimum: the
/// solver's objective is a flops-per-word heuristic, so grids it ranks
/// second or third (different replication factor c, different pk) can win
/// under the full per-phase cost model (costmodel::predict) on a concrete
/// machine. Deterministic; same constraints (utilization, Cannon
/// compatibility, memory budget) as find_grid.
std::vector<ProcGrid> find_grid_candidates(i64 m, i64 n, i64 k, int P,
                                           int count,
                                           const GridOptions& opt = {});

/// COSMA-style grid (paper §III-C): same enumeration without constraint (7),
/// matching "find p_m x p_k x p_n s.t. m/p_m ~ k/p_k ~ n/p_n".
ProcGrid find_grid_cosma(i64 m, i64 n, i64 k, int P, double l = 0.95);

/// CTF-style grid: the 2.5D algorithm's chooser. Picks the largest
/// replication depth p_k = c such that P/c is a perfect square (falling back
/// to c = 1 and the largest square grid <= P), mirroring CTF's cyclic
/// processor-grid folding, which is often far from GEMM-optimal for
/// non-square problems (paper §IV-A).
ProcGrid find_grid_ctf(i64 m, i64 n, i64 k, int P);

}  // namespace ca3dmm
