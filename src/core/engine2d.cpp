#include "core/engine2d.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "linalg/gemm.hpp"
#include "resilience/abft.hpp"

namespace ca3dmm {

using simmpi::Phase;

namespace {

// Tags spaced far apart; shift steps reuse one tag per direction (the
// per-channel FIFO keeps successive steps ordered).
constexpr int kTagShiftA = 101;
constexpr int kTagShiftB = 201;
constexpr int kTagSkewA = 301;
constexpr int kTagSkewB = 401;

inline int grid_rank(int s, int i, int j) { return j * s + i; }
inline int wrap(int v, int s) { return ((v % s) + s) % s; }

/// The degenerate 1 x 1 grid of both engines: `steps` (0 or 1) local
/// GEMMs, nothing to communicate.
void single_gemm(Schedule& sc, const Engine2dShape& sh, int steps, int a,
                 int b, int c, std::initializer_list<int> release) {
  const i64 kb = sh.a_kparts[0];
  if (steps > 0) {
    sc.set_phase(Phase::kCompute);
    sc.compute(a, b, c, sh.mb, sh.nb, kb, kb, gemm_flops(sh.mb, sh.nb, kb),
               gemm_bytes(sh.mb, sh.nb, kb, sc.esize()), false);
    sc.set_phase(kInheritPhase);
  }
  for (const int slot : release) sc.free(slot);
}

/// GEMM bytes of successive steps: operands every step, C only on the
/// first (the GPU device keeps C resident across steps).
class StepBytes {
 public:
  StepBytes(const Engine2dShape& sh, i64 esize) : sh_(sh), esize_(esize) {}
  double operator()(i64 kw) {
    const double b = gemm_operand_bytes(sh_.mb, sh_.nb, kw, esize_) +
                     (c_staged_ ? 0.0 : gemm_result_bytes(sh_.mb, sh_.nb,
                                                          esize_));
    c_staged_ = true;
    return b;
  }

 private:
  const Engine2dShape& sh_;
  i64 esize_;
  bool c_staged_ = false;
};

/// Calls f(ta, a_off, tb, b_off, w) for each SUMMA panel in k order: the
/// nonempty intervals between consecutive boundaries of A's and B's k
/// partitions. The panel is columns [a_off, a_off + w) of A k-part ta and
/// rows [b_off, b_off + w) of B k-part tb.
template <typename F>
void for_each_panel(const Engine2dShape& sh, F&& f) {
  const std::span<const i64> ka = sh.a_kparts, kb = sh.b_kparts;
  size_t ta = 0, tb = 0;
  i64 a_off = 0, b_off = 0;
  while (ta < ka.size() && tb < kb.size()) {
    const i64 w = std::min(ka[ta] - a_off, kb[tb] - b_off);
    if (w > 0)
      f(static_cast<int>(ta), a_off, static_cast<int>(tb), b_off, w);
    a_off += w;
    b_off += w;
    if (a_off == ka[ta]) ++ta, a_off = 0;
    if (b_off == kb[tb]) ++tb, b_off = 0;
  }
}

}  // namespace

void cannon_schedule(Schedule& sc, const Engine2dShape& sh, int grid, int a,
                     int b, int c, i64 min_kblk, int first, int steps,
                     std::initializer_list<int> release) {
  const int s = sh.pr, i = sh.i, j = sh.j;
  CA_ASSERT(sh.pc == s && static_cast<int>(sh.a_kparts.size()) == s);
  if (s == 1 || steps == 0) {  // no shift: no skew either
    single_gemm(sc, sh, steps, a, b, c, release);
    return;
  }
  const i64 esize = sc.esize(), mb = sh.mb, nb = sh.nb;
  auto kpart = [&](int t) {
    return sh.a_kparts[static_cast<size_t>(wrap(t, s))];
  };
  // Elements on the wire for a tile of `payload` elements: the payload
  // alone, or payload + ABFT checksum trailer when protection is on.
  const bool abft = sh.abft;
  auto msg = [&](i64 payload) {
    return abft ? payload + resilience::abft_trailer_elems(payload, esize)
                : payload;
  };
  const i64 kb_max = std::ranges::max(sh.a_kparts);
  // Multi-shift aggregation (paper §III-F): thin k-parts accumulate into a
  // window of at least min_kblk before one GEMM runs on it.
  const bool aggregate = min_kblk > 0 && kb_max < min_kblk;
  sc.alloc(kACur, msg(mb * kb_max));
  sc.alloc(kBCur, msg(kb_max * nb));

  // ---- initial skew (paper §III-B), shifted by `first`: afterwards this
  // process holds A k-part (i + j + first) and B k-part (i + j + first).
  // A: row i shifts left by i + first, send to (i, j-i-first), receive
  // from (i, j+i+first). B: column j shifts up by j + first. ----
  const int h = i + j + first;  // the k-part this rank starts on
  const int to_a = grid_rank(s, i, wrap(j - i - first, s));
  const int from_a = grid_rank(s, i, wrap(h, s));
  const int to_b = grid_rank(s, wrap(i - j - first, s), j);
  const int from_b = grid_rank(s, wrap(h, s), j);
  const i64 ka_s = kpart(j), ka_r = kpart(h);
  const i64 pa_s = mb * ka_s, pa_r = mb * ka_r;
  const i64 pb_s = kpart(i) * nb, pb_r = kpart(h) * nb;
  sc.set_phase(Phase::kShift);
  if (!abft) {
    sc.exchange(grid, a, pa_s, to_a, kACur, pa_r, from_a, kTagSkewA, false);
    sc.exchange(grid, b, pb_s, to_b, kBCur, pb_r, from_b, kTagSkewB, false);
  } else {
    // The input blocks are const, so each outgoing skew message is staged
    // to make room for its trailer; the staging buffer dies with the
    // block, before the dual buffers are allocated.
    sc.alloc(kStage, msg(pa_s));
    if (aggregate)  // aggregated A panels travel k-major
      sc.copy(a, 0, ka_s, kStage, 0, mb, mb, ka_s, /*transpose=*/true);
    else
      sc.copy(a, 0, 0, kStage, 0, 0, 1, pa_s);
    sc.scan(kStage, grid, pa_s, nullptr);
    sc.exchange(grid, kStage, msg(pa_s), to_a, kACur, msg(pa_r), from_a,
                kTagSkewA, false);
    sc.scan(kACur, grid, pa_r, "Cannon A-skew");
    sc.free(kStage);
    sc.alloc(kStage, msg(pb_s));
    sc.copy(b, 0, 0, kStage, 0, 0, 1, pb_s);
    sc.scan(kStage, grid, pb_s, nullptr);
    sc.exchange(grid, kStage, msg(pb_s), to_b, kBCur, msg(pb_r), from_b,
                kTagSkewB, false);
    sc.scan(kBCur, grid, pb_r, "Cannon B-skew");
    sc.free(kStage);
  }
  sc.set_phase(kInheritPhase);
  // The skew moved the inputs into the shift buffers; the source blocks are
  // dead from here on. The second (dual) buffer pair is only allocated now,
  // so the peak stays at eq. (11)'s two-buffer footprint.
  for (const int slot : release) sc.free(slot);
  sc.alloc(kANxt, msg(mb * kb_max));
  sc.alloc(kBNxt, msg(kb_max * nb));

  // ---- aggregation windows: kAggB holds B panels in k order, kAggA holds
  // A k-major (agg_cap rows of mb), so every panel is one contiguous range
  // and the flush GEMM reads A transposed. The skewed panels open the
  // first window. ----
  const i64 kb_total =
      std::accumulate(sh.a_kparts.begin(), sh.a_kparts.end(), i64{0});
  const i64 agg_cap = aggregate ? std::min(kb_total, min_kblk + kb_max) : 0;
  sc.alloc(kAggA, mb * agg_cap);
  sc.alloc(kAggB, agg_cap * nb);
  if (aggregate) {
    if (abft)  // the staged skew arrived k-major
      sc.copy(kACur, 0, 0, kAggA, 0, 0, 1, pa_r);
    else
      sc.copy(kACur, 0, ka_r, kAggA, 0, mb, mb, ka_r, /*transpose=*/true);
    sc.copy(kBCur, 0, 0, kAggB, 0, 0, 1, pb_r);
  }

  StepBytes step_bytes(sh, esize);
  const int left = grid_rank(s, i, wrap(j - 1, s));
  const int right = grid_rank(s, i, wrap(j + 1, s));
  const int up = grid_rank(s, wrap(i - 1, s), j);
  const int down = grid_rank(s, wrap(i + 1, s), j);
  int a_cur = kACur, a_nxt = kANxt, b_cur = kBCur, b_nxt = kBNxt;
  // Aggregated panels are sent from the window and the next one received
  // straight behind the current one, unless it opens a new window (the
  // flush GEMM still reads the old one) or ABFT needs room for a trailer:
  // then it lands in a shift buffer and is appended.
  const bool from_window = aggregate && !abft;
  i64 agg_k = 0;  // k extent of the window before the current panel

  // The overlap budget accumulates across shifts until the next GEMM flush:
  // with aggregation, several steps' transfers pipeline into one
  // aggregated GEMM. The final step has nothing in flight.
  for (int t = 0; t < steps; ++t) {
    const i64 kb = kpart(h + t);  // current k-part extent
    const i64 kb_next = kpart(h + t + 1);
    const bool flush = !aggregate || agg_k + kb >= min_kblk || t == steps - 1;
    const bool in_place = from_window && !flush;
    if (t < steps - 1) {
      const i64 src_k = from_window ? agg_k : 0;  // k offsets in the slots
      const i64 dst_k = in_place ? agg_k + kb : 0;
      sc.set_phase(Phase::kShift);
      if (abft) sc.scan(a_cur, grid, mb * kb, nullptr);
      sc.exchange(grid, from_window ? kAggA : a_cur, msg(mb * kb), left,
                  in_place ? kAggA : a_nxt, msg(mb * kb_next), right,
                  kTagShiftA, sh.overlap, src_k * mb, dst_k * mb);
      if (abft) sc.scan(a_nxt, grid, mb * kb_next, "Cannon A-shift");
      if (abft) sc.scan(b_cur, grid, kb * nb, nullptr);
      sc.exchange(grid, from_window ? kAggB : b_cur, msg(kb * nb), up,
                  in_place ? kAggB : b_nxt, msg(kb_next * nb), down,
                  kTagShiftB, sh.overlap, src_k * nb, dst_k * nb);
      if (abft) sc.scan(b_nxt, grid, kb_next * nb, "Cannon B-shift");
      sc.set_phase(kInheritPhase);
    }
    agg_k += kb;
    if (flush) {
      sc.set_phase(Phase::kCompute);
      sc.compute(aggregate ? kAggA : a_cur, aggregate ? kAggB : b_cur, c, mb,
                 nb, agg_k, aggregate ? mb : kb, gemm_flops(mb, nb, agg_k),
                 step_bytes(agg_k), true, aggregate);
      sc.set_phase(kInheritPhase);
      agg_k = 0;
    }
    if (aggregate && !in_place && t < steps - 1) {
      sc.copy(a_nxt, 0, 0, kAggA, agg_k * mb, 0, 1, kb_next * mb);
      sc.copy(b_nxt, 0, 0, kAggB, agg_k * nb, 0, 1, kb_next * nb);
    }
    std::swap(a_cur, a_nxt);
    std::swap(b_cur, b_nxt);
  }
  sc.free(kAggB);
  sc.free(kAggA);
  sc.free(kBNxt);
  sc.free(kANxt);
  sc.free(kBCur);
  sc.free(kACur);
}

void summa_schedule(Schedule& sc, const Engine2dShape& sh, int grid, int a,
                    int b, int c, std::initializer_list<int> release) {
  const int pr = sh.pr, i = sh.i, j = sh.j;
  CA_ASSERT(static_cast<int>(sh.a_kparts.size()) == sh.pc &&
            static_cast<int>(sh.b_kparts.size()) == pr);
  if (pr == 1 && sh.pc == 1) {
    single_gemm(sc, sh, 1, a, b, c, release);
    return;
  }
  // Row communicator (fixed i, varying j) and column communicator.
  sc.split(grid, kRow, i, j, false);
  sc.split(grid, kCol, pr + j, i, false);  // color offset keeps it symmetric

  const i64 mb = sh.mb, nb = sh.nb;
  i64 kb_max = 0;
  for_each_panel(sh, [&](int, i64, int, i64, i64 w) {
    kb_max = std::max(kb_max, w);
  });
  sc.alloc(kACur, mb * kb_max);  // the panels
  sc.alloc(kBCur, kb_max * nb);
  StepBytes step_bytes(sh, sc.esize());
  for_each_panel(sh, [&](int ta, i64 a_off, int tb, i64 b_off, i64 w) {
    // The owners of A k-part ta (grid column ta) and B k-part tb (grid row
    // tb) pack the panel's columns / rows.
    sc.set_phase(Phase::kShift);
    if (j == ta)
      sc.copy(a, a_off, sh.a_kparts[static_cast<size_t>(ta)], kACur, 0, w,
              mb, w);
    sc.bcast(kRow, kACur, mb * w, ta, sh.overlap);
    if (i == tb) sc.copy(b, b_off * nb, 0, kBCur, 0, 0, 1, w * nb);
    sc.bcast(kCol, kBCur, w * nb, tb, sh.overlap);
    // SUMMA pipelines the next panel broadcast with the current update.
    sc.set_phase(Phase::kCompute);
    sc.compute(kACur, kBCur, c, mb, nb, w, w, gemm_flops(mb, nb, w),
               step_bytes(w), true);
    sc.set_phase(kInheritPhase);
  });
  for (const int slot : release) sc.free(slot);
  sc.free(kBCur);
  sc.free(kACur);
}

}  // namespace ca3dmm
