// Standalone SUMMA baseline (van de Geijn & Watts 1997; paper §II).
//
// The classic 2-D algorithm: A, B, C block-distributed on a pr x pc process
// grid; for each k panel, the owning process column broadcasts its A panel
// along its process row and the owning process row broadcasts its B panel
// down its process column, followed by a local rank-kb update. SUMMA cannot
// exploit extra memory (no k-dimension parallelism), which is exactly the
// limitation CA3DMM's 3-D organization removes.
//
// The panel loop is core/engine2d's summa_schedule on the whole pr x pc
// grid, with A's k range split over the grid columns and B's over the rows:
// it walks the union of both partitions' boundaries, so rectangular grids
// with unaligned k-partitions work.
#pragma once

#include <optional>

#include "core/grid_solver.hpp"
#include "core/schedule.hpp"
#include "layout/block_layout.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm {

class SummaPlan {
 public:
  i64 m() const { return m_; }
  i64 n() const { return n_; }
  i64 k() const { return k_; }
  int nranks() const { return nranks_; }
  int pr() const { return pr_; }
  int pc() const { return pc_; }
  int active() const { return pr_ * pc_; }
  /// The 2-D grid as a ProcGrid: pr x pc x 1.
  ProcGrid grid() const { return ProcGrid{pr_, pc_, 1}; }

  /// Grid ranks are row-major over (pr, pc); idle ranks own nothing.
  Rect a_rect(int world_rank) const;
  Rect b_rect(int world_rank) const;
  Rect c_rect(int world_rank) const;
  const BlockLayout& a_native() const { return natives_.a; }
  const BlockLayout& b_native() const { return natives_.b; }
  const BlockLayout& c_native() const { return natives_.c; }

  /// Near-optimal 2-D grid (k never partitioned — SUMMA's limitation).
  static SummaPlan make(i64 m, i64 n, i64 k, int nranks,
                        std::optional<std::pair<int, int>> force_grid = {});

 private:
  i64 m_ = 0, n_ = 0, k_ = 0;
  int nranks_ = 0;
  int pr_ = 1, pc_ = 1;
  NativeLayouts natives_;  ///< built once by make()
};

/// Appends world rank `rank`'s SUMMA schedule to `s`: summa_schedule on the
/// active ranks' grid. `anchor` is unused: it is part of every plan's
/// build_schedule signature.
void build_schedule(const SummaPlan& plan, int rank,
                    const simmpi::Machine& anchor, bool trans_a, bool trans_b,
                    Schedule& s);

}  // namespace ca3dmm
