// CA3DMM: Communication-Avoiding 3D Matrix Multiplication (paper Alg. 1).
//
// Public entry point of the library. Computes C = op(A) x op(B) for
// distributed dense matrices:
//
//   1. find the 3-D process grid (grid_solver, eqs. 4-7),
//   2. redistribute A and B from the caller's distributions to the
//      library-native initial distributions (transposes applied here),
//   3. all-gather the replicated operand inside each k-task group (c > 1),
//   4. run Cannon's algorithm (or SUMMA) per Cannon group,
//   5. reduce-scatter the pk partial C results,
//   6. redistribute C to the caller's distribution.
//
// All steps run on a simmpi communicator and charge virtual time per phase;
// every work buffer is tracked from its alloc op to its free op, so per-rank
// peak memory matches what the paper's Table I measures.
//
// Execution options (inner engine, multi-shift aggregation) are read from
// the plan itself (Ca3dmmPlan::options()): a plan can never be executed with
// options other than the ones that shaped its grid.
//
// Execution runs the plan's schedule (core/schedule.hpp) for the calling
// rank through run_plan — the same op list the cost model replays.
// ca3dmm_multiply is the one-shot path: it compiles the schedule and splits
// the communicators in place, at their program points, on every call. The
// warm path is the persistent engine (src/engine): it caches the schedule
// and takes its four per-plan splits from a PlanComms split once.
#pragma once

#include "core/engine2d.hpp"
#include "core/plan.hpp"
#include "core/schedule.hpp"
#include "layout/redistribute.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm {

/// Appends world rank `rank`'s share of Algorithm 1 under `plan` to `s`
/// (layouts kUserLayout* -> kNative* -> kUserLayoutC; the active, Cannon,
/// replication and reduction splits are cacheable). `anchor` is unused: it
/// is part of every plan's build_schedule signature.
void build_schedule(const Ca3dmmPlan& plan, int rank,
                    const simmpi::Machine& anchor, bool trans_a, bool trans_b,
                    Schedule& s);

/// The split communicators one plan's execution uses, created once and
/// reusable across any number of multiplications with that plan.
///
/// Per-rank contents (world rank `r`, coordinate co = plan.coord(r)):
///   * active — the plan.active() working ranks (invalid on idle ranks),
///   * cannon — co's s x s Cannon group (invalid on idle ranks),
///   * repl   — the c replication peers sharing co's (gk, i, j) across
///              Cannon groups (valid only when plan.c() > 1),
///   * reduce — the pk k-task peers sharing co's (gc, i, j) (valid only
///              when plan.grid().pk > 1).
struct PlanComms {
  simmpi::Comm active;
  simmpi::Comm cannon;
  simmpi::Comm repl;
  simmpi::Comm reduce;

  /// Splits all communicators for `plan` — the cacheable splits of this
  /// rank's schedule, in program order. Collective over `world`, which
  /// must span exactly plan.nranks() ranks. Charges the split setup cost
  /// once. The engine uses the overload below; this one serves callers
  /// that time the splits alone (perfbench's simmpi.split_s probe), and
  /// builds the schedule without compiling it (no schedule_builds).
  static PlanComms make(simmpi::Comm& world, const Ca3dmmPlan& plan);
  /// The same, read off this rank's schedule compiled from the plan.
  static PlanComms make(simmpi::Comm& world, const Schedule& s);

  /// Binds the communicators to their schedule slots (ScheduleIo::cached).
  void bind(const simmpi::Comm* (&cached)[kCommCount]) const {
    cached[kActive] = &active;
    cached[kGrid] = &cannon;
    cached[kRepl] = &repl;
    cached[kReduce] = &reduce;
  }
};

/// Computes C = op(A) x op(B) with op fixed by trans_a / trans_b.
///
/// `plan` must be built with Ca3dmmPlan::make(m, n, k, world.size(), opt)
/// where (m, n, k) are the dimensions of the *logical* product, i.e. op(A)
/// is m x k and op(B) is k x n.
///
/// `a_layout` describes the stored A over world.size() ranks: (m x k) when
/// !trans_a, (k x m) when trans_a; `a_local` is this rank's local data.
/// Similarly for B. `c_layout` is the desired distribution of the m x n
/// result; `c_local` must have c_layout.local_size(rank) elements.
///
/// Collective over `world`. Ranks beyond plan.active() only take part in the
/// redistribution steps (paper Alg. 1 step 2).
template <typename T>
void ca3dmm_multiply(simmpi::Comm& world, const Ca3dmmPlan& plan, bool trans_a,
                     bool trans_b, const BlockLayout& a_layout,
                     const T* a_local, const BlockLayout& b_layout,
                     const T* b_local, const BlockLayout& c_layout,
                     T* c_local) {
  run_plan(world, plan, trans_a, trans_b, a_layout, a_local, b_layout,
           b_local, c_layout, c_local);
}

/// Convenience wrapper: plans with `opt` and multiplies.
template <typename T>
Ca3dmmPlan ca3dmm_multiply(simmpi::Comm& world, i64 m, i64 n, i64 k,
                           bool trans_a, bool trans_b,
                           const BlockLayout& a_layout, const T* a_local,
                           const BlockLayout& b_layout, const T* b_local,
                           const BlockLayout& c_layout, T* c_local,
                           const Ca3dmmOptions& opt = {}) {
  Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, world.size(), opt);
  ca3dmm_multiply<T>(world, plan, trans_a, trans_b, a_layout, a_local,
                     b_layout, b_local, c_layout, c_local);
  return plan;
}

}  // namespace ca3dmm
