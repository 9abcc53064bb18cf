// The 2-D engines: Cannon's algorithm and SUMMA. Every algorithm in this
// repository that runs a 2-D engine runs one of these two schedule
// fragments (core/schedule.hpp): CA3DMM runs Cannon (default) or SUMMA (the
// §III-E alternative) inside each Cannon group, the 2.5D baseline runs a
// window of Cannon's shift steps on each layer, and the SUMMA baseline runs
// SUMMA on its whole pr x pc grid.
//
// Both compute a partial C block: a rank-|K| update
// C_partial(M_I, N_J) = A(M_I, K) * B(K, N_J) distributed over a pr x pc
// process grid. Rank order inside the grid communicator is q = j*pr + i
// (i fastest). Process (i, j) holds A(row block i, A k-part j) and
// B(B k-part i, column block j): A's k range is split over the pc grid
// columns, B's over the pr grid rows.
//
// Cannon needs a square grid and one partition for both operands. It
// performs the initial skew, then circular shifts with dual-buffering
// (communication of step t+1 overlaps the GEMM of step t) and multi-shift
// aggregation (several panels accumulated before one local GEMM when
// k-parts are thin). Aggregated panels land in place: the window buffers
// hold B in k order and A k-major (the skewed A panel is transposed in
// once), so a shift sends out of the window and receives straight behind
// the current panel, and the flush GEMM reads A transposed. Only a panel
// that opens a window (and, under ABFT, every panel) goes through a shift
// buffer and one append. SUMMA broadcasts panels along process rows and
// columns instead; its latency is provably no better (paper §III-E).
//
// A 1 x 1 grid is one local GEMM in either engine. To run one engine alone,
// execute a CA3DMM plan on a forced s x s x 1 grid.
#pragma once

#include <initializer_list>
#include <span>

#include "common/partition.hpp"
#include "core/schedule.hpp"

namespace ca3dmm {

/// Shared description of one 2-D engine invocation. The k-part spans are
/// not owned: builders keep them in thread_local storage, because the cost
/// model builds P schedules.
struct Engine2dShape {
  int pr = 1;  ///< grid rows
  int pc = 1;  ///< grid columns (Cannon: pr)
  int i = 0;   ///< my grid row
  int j = 0;   ///< my grid column
  i64 mb = 0;  ///< rows of my C block (|M_I|)
  i64 nb = 0;  ///< cols of my C block (|N_J|)
  /// Sizes of A's k-parts (one per grid column) and of B's (one per grid
  /// row), both partitions of the same k range. Cannon needs the same
  /// partition in both.
  std::span<const i64> a_kparts, b_kparts;
  /// Append ABFT checksum trailers to every Cannon skew/shift message and
  /// verify (correcting single-byte corruption) on receipt. Ignored by
  /// SUMMA. See Ca3dmmOptions::abft.
  bool abft = false;
  /// Pipeline communication behind the local GEMM (dual-buffer overlap
  /// budget). See Ca3dmmOptions::overlap.
  bool overlap = true;
};

/// Appends shift steps [first, first + steps) of Cannon's algorithm on grid
/// communicator slot `grid`: A block in buffer slot `a` (mb x kparts[j],
/// row-major), B block in `b` (kparts[i] x nb), partial C accumulated into
/// `c` (mb x nb, zeroed). The skew is shifted by `first`, so this rank
/// starts on k-part i + j + first; a whole Cannon runs `first = 0,
/// steps = pr`. `min_kblk` enables multi-shift aggregation (0 = one GEMM
/// per shift). The buffers in `release` are freed as soon as the inputs are
/// dead — right after the skew moved them into the shift buffers — which
/// is what keeps CA3DMM at the paper's eq.-(11) memory footprint (two shift
/// buffers, not three copies). A window of 0 steps computes and sends
/// nothing: it only frees `release`.
void cannon_schedule(Schedule& s, const Engine2dShape& sh, int grid, int a,
                     int b, int c, i64 min_kblk, int first, int steps,
                     std::initializer_list<int> release);

/// SUMMA on the same grid, distribution and result contract, for any
/// pr x pc grid and any two k partitions: one broadcast panel per nonempty
/// interval between consecutive boundaries of A's and B's k-parts — the
/// largest panels, the setting the paper's §III-E latency analysis assumes.
/// SUMMA broadcasts panels straight out of the input blocks, so `release`
/// is only freed after the last panel.
void summa_schedule(Schedule& s, const Engine2dShape& sh, int grid, int a,
                    int b, int c, std::initializer_list<int> release);

}  // namespace ca3dmm
