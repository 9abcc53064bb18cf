// Inner 2-D engines of CA3DMM: Cannon's algorithm (default) and SUMMA
// (the §III-E alternative).
//
// Both compute a partial C block for one Cannon group: a rank-|K_g| update
// C_partial(M_I, N_J) = A(M_I, K_g) * B(K_g, N_J) distributed over an s x s
// process grid. Rank order inside the group communicator is q = j*s + i
// (i fastest), matching the plan's column-major organization.
//
// Initial distribution (both engines): process (i, j) holds the pre-skew
// Cannon blocks A(row block i, k-part j) and B(k-part i, column block j).
//
// Cannon performs the initial skew, then s-1 circular shifts with
// dual-buffering (communication of step t+1 overlaps the GEMM of step t) and
// multi-shift aggregation (several panels accumulated before one local GEMM
// when k-parts are thin). Aggregated panels land in place: the window
// buffers hold B in k order and A k-major (the skewed A panel is transposed
// in once), so a shift sends out of the window and receives straight behind
// the current panel, and the flush GEMM reads A transposed. Only a panel
// that opens a window (and, under ABFT, every panel) goes through a shift
// buffer and one append. SUMMA broadcasts the k-part panels along process
// rows/columns instead; its latency is provably no better (paper §III-E).
//
// The engines are schedule fragments (core/schedule.hpp): cannon_schedule
// and summa_schedule append their ops to a CA3DMM plan's schedule. To run
// one engine alone, execute a CA3DMM plan on a forced s x s x 1 grid.
#pragma once

#include <initializer_list>
#include <vector>

#include "common/partition.hpp"
#include "core/schedule.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm {

/// Shared description of one 2-D engine invocation.
struct Engine2dShape {
  int s = 1;   ///< grid size
  int i = 0;   ///< my Cannon row
  int j = 0;   ///< my Cannon column
  i64 mb = 0;  ///< rows of my C block (|M_I|)
  i64 nb = 0;  ///< cols of my C block (|N_J|)
  /// Sizes of the s k-parts of this k-task group's k range (canonical
  /// partition of |K_g| into s parts).
  std::vector<i64> kpart_sizes;
  /// Append ABFT checksum trailers to every Cannon skew/shift message and
  /// verify (correcting single-byte corruption) on receipt. Ignored by
  /// SUMMA. See Ca3dmmOptions::abft.
  bool abft = false;
  /// Pipeline communication behind the local GEMM (dual-buffer overlap
  /// budget). See Ca3dmmOptions::overlap.
  bool overlap = true;

  i64 kb_total() const {
    i64 t = 0;
    for (i64 v : kpart_sizes) t += v;
    return t;
  }
  i64 kb_max() const {
    i64 t = 0;
    for (i64 v : kpart_sizes) t = t > v ? t : v;
    return t;
  }
};

/// Appends Cannon's algorithm on grid communicator slot `grid`: A block in
/// buffer slot `a` (mb x kpart_sizes[j], row-major), B block in `b`
/// (kpart_sizes[i] x nb), partial C accumulated into `c` (mb x nb, zeroed).
/// `min_kblk` enables multi-shift aggregation (0 = one GEMM per shift).
/// The buffers in `release` are freed as soon as the inputs are dead —
/// right after the skew moved them into the shift buffers — which is what
/// keeps CA3DMM at the paper's eq.-(11) memory footprint (two shift
/// buffers, not three copies).
void cannon_schedule(Schedule& s, const Engine2dShape& sh, int grid, int a,
                     int b, int c, i64 min_kblk,
                     std::initializer_list<int> release);

/// SUMMA on the same grid, distribution, and result contract. SUMMA
/// broadcasts panels straight out of the input blocks, so `release` is
/// only freed after the last panel.
void summa_schedule(Schedule& s, const Engine2dShape& sh, int grid, int a,
                    int b, int c, std::initializer_list<int> release);

}  // namespace ca3dmm
