// The 2.5D matrix multiplication algorithm (Solomonik & Demmel, Euro-Par'11;
// paper §II) — the algorithm CTF implements.
//
// P = q x q x c processes: c replication layers over a square q x q grid.
// A and B live on layer 0 in q x q blocks ("the matrices are only stored on
// a subset of processes", as the CA3DMM paper notes); they are broadcast
// down the layer dimension, each layer runs its 1/c share of the Cannon
// shift sequence (core/engine2d's cannon_schedule on a window of steps,
// whose skew is the layer's alignment), and the partial C results are
// reduce-scattered across layers.
//
// With c = 1 this is exactly Cannon's 2-D algorithm; with c = P^(1/3) it is
// the original 3-D algorithm — the trade-off curve the CA3DMM paper's §II
// describes. Unlike CA3DMM it requires a *square* grid and keeps whole
// C blocks per process, which is why it degrades for strongly rectangular
// problems (paper §II, citing Demmel et al.).
#pragma once

#include <optional>

#include "core/grid_solver.hpp"
#include "core/schedule.hpp"
#include "layout/block_layout.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm {

class P25dPlan {
 public:
  i64 m() const { return m_; }
  i64 n() const { return n_; }
  i64 k() const { return k_; }
  int nranks() const { return nranks_; }
  int q() const { return q_; }    ///< square grid side
  int c() const { return c_; }    ///< replication depth
  int active() const { return q_ * q_ * c_; }
  /// The equivalent 3-D grid: q x q x c.
  ProcGrid grid() const { return ProcGrid{q_, q_, c_}; }

  /// A and B initial distributions: q x q blocks on layer 0 only (rank
  /// j*q + i owns block (i, j)). *_rect(r) is rank r's one rect.
  Rect a_rect(int world_rank) const;
  Rect b_rect(int world_rank) const;
  Rect c_rect(int world_rank) const;
  const BlockLayout& a_native() const { return natives_.a; }
  const BlockLayout& b_native() const { return natives_.b; }
  /// Final C: each (i, j) block row-split across the c layers.
  const BlockLayout& c_native() const { return natives_.c; }

  /// Chooses (q, c): maximize utilization with c <= q (the classic 2.5D
  /// feasibility bound), then minimize the composite grid objective.
  static P25dPlan make(i64 m, i64 n, i64 k, int nranks,
                       std::optional<std::pair<int, int>> force_qc = {});

 private:
  i64 m_ = 0, n_ = 0, k_ = 0;
  int nranks_ = 0;
  int q_ = 1, c_ = 1;
  NativeLayouts natives_;  ///< built once by make()
};

/// Appends world rank `rank`'s 2.5D schedule to `s` (`anchor` is unused:
/// it is part of every plan's build_schedule signature).
void build_schedule(const P25dPlan& plan, int rank,
                    const simmpi::Machine& anchor, bool trans_a, bool trans_b,
                    Schedule& s);

}  // namespace ca3dmm
