#include "baselines/p25d.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/gemm.hpp"

namespace ca3dmm {

using simmpi::Phase;

namespace {

constexpr int kTagAlignA = 501;
constexpr int kTagAlignB = 502;
constexpr int kTagShiftA = 503;
constexpr int kTagShiftB = 504;

inline int wrap(int v, int q) { return ((v % q) + q) % q; }

}  // namespace

P25dPlan P25dPlan::make(i64 m, i64 n, i64 k, int nranks,
                        std::optional<std::pair<int, int>> force_qc) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && nranks > 0,
             "2.5D needs positive dimensions");
  P25dPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  if (force_qc) {
    p.q_ = force_qc->first;
    p.c_ = force_qc->second;
    CA_REQUIRE(p.q_ >= 1 && p.c_ >= 1 && p.active() <= nranks,
               "bad forced 2.5D grid %d^2 x %d", p.q_, p.c_);
    p.natives_ = NativeLayouts::of(p);
    return p;
  }
  // Choose (q, c): c <= q (classic feasibility), maximize utilization, then
  // minimize the composite objective of the equivalent q x q x c grid.
  int best_active = 0;
  double best_cost = 1e300;
  for (int c = 1; c * c * c <= nranks; ++c) {
    const int q = static_cast<int>(std::sqrt(static_cast<double>(nranks / c)));
    for (int qq = std::max(1, q - 1); qq <= q + 1; ++qq) {
      if (qq * qq * c > nranks || c > qq) continue;
      const int active = qq * qq * c;
      const double cost = grid_objective(m, n, k, ProcGrid{qq, qq, c});
      if (active > best_active ||
          (active == best_active && cost < best_cost)) {
        best_active = active;
        best_cost = cost;
        p.q_ = qq;
        p.c_ = c;
      }
    }
  }
  p.natives_ = NativeLayouts::of(p);
  return p;
}

Rect P25dPlan::a_rect(int r) const {
  if (r >= q_ * q_) return Rect{};  // layer 0 only
  return Rect{block_range(m_, q_, r % q_), block_range(k_, q_, r / q_)};
}

Rect P25dPlan::b_rect(int r) const {
  if (r >= q_ * q_) return Rect{};
  return Rect{block_range(k_, q_, r % q_), block_range(n_, q_, r / q_)};
}

Rect P25dPlan::c_rect(int r) const {
  // Each C(i, j) block is row-split across the c layers after the
  // reduce-scatter.
  if (r >= active()) return Rect{};
  const int layer = r / (q_ * q_), idx = r % (q_ * q_);
  const Range rows = block_range(m_, q_, idx % q_);
  const Range sub = block_range(rows.size(), c_, layer);
  return Rect{Range{rows.lo + sub.lo, rows.lo + sub.hi},
              block_range(n_, q_, idx / q_)};
}

void build_schedule(const P25dPlan& plan, int me, const simmpi::Machine&,
                    bool trans_a, bool trans_b, Schedule& s) {
  const int q = plan.q(), c = plan.c();
  const bool is_active = me < plan.active();
  const int layer = me / (q * q);
  const int idx = me % (q * q);
  const int i = idx % q, j = idx / q;
  const i64 k = plan.k(), esize = s.esize();

  // A and B blocks live on layer 0 initially; every active rank still sizes
  // its (replicated) block buffers (the 2.5D extra-memory cost).
  const i64 mb = block_size(plan.m(), q, i), nb = block_size(plan.n(), q, j);
  const i64 kb_max = ceil_div(k, q);
  auto kpart = [&](int t) { return block_size(k, q, wrap(t, q)); };

  const i64 a_init = plan.a_rect(me).size(), b_init = plan.b_rect(me).size();
  redistribute_in(s, a_init, b_init, trans_a, trans_b);

  s.split(kWorld, kActive, is_active ? 0 : -1, me, false);
  int c_result = kCResult;
  if (is_active) {
    s.split(kActive, kGrid, layer, idx, false);  // my layer's q x q grid
    s.split(kActive, kRepl, c /*offset*/ + idx, layer, false);  // fixed (i, j)

    // ---- replicate layer 0's blocks down the layer dimension ----
    s.alloc(kACur, mb * kb_max);
    s.alloc(kBCur, kb_max * nb);
    s.set_phase(Phase::kReplicate);
    if (layer == 0) s.copy(kAInit, 0, 0, kACur, 0, 0, 1, a_init);
    s.bcast(kRepl, kACur, mb * kpart(j), 0, false);
    if (layer == 0) s.copy(kBInit, 0, 0, kBCur, 0, 0, 1, b_init);
    s.bcast(kRepl, kBCur, kpart(i) * nb, 0, false);
    s.set_phase(kInheritPhase);
    s.free(kAInit);
    s.free(kBInit);

    // ---- layer-specific Cannon alignment ----
    // Layer `layer` executes global shift steps [off, off + steps): align so
    // that this rank holds A(i, i+j+off) and B(i+j+off, j).
    const int off = static_cast<int>(block_start(q, c, layer));
    const int steps = static_cast<int>(block_size(q, c, layer));
    s.alloc(kANxt, mb * kb_max);
    s.alloc(kBNxt, kb_max * nb);
    int a_cur = kACur, a_nxt = kANxt, b_cur = kBCur, b_nxt = kBNxt;
    s.set_phase(Phase::kShift);
    // A: I hold (i, j); the rank needing mine has j' with
    // wrap(j' + i + off) == j.
    s.exchange(kGrid, a_cur, mb * kpart(j), wrap(j - i - off, q) * q + i,
               a_nxt, mb * kpart(i + j + off), wrap(j + i + off, q) * q + i,
               kTagAlignA, false);
    std::swap(a_cur, a_nxt);
    // B: the rank needing mine has i' with wrap(i' + j + off) == i.
    s.exchange(kGrid, b_cur, kpart(i) * nb, j * q + wrap(i - j - off, q),
               b_nxt, kpart(i + j + off) * nb, j * q + wrap(i + j + off, q),
               kTagAlignB, false);
    std::swap(b_cur, b_nxt);
    s.set_phase(kInheritPhase);

    // ---- my share of the Cannon steps ----
    s.alloc(kCPartial, mb * nb, /*zero=*/true);
    const int left = wrap(j - 1, q) * q + i;
    const int right = wrap(j + 1, q) * q + i;
    const int up = j * q + wrap(i - 1, q);
    const int down = j * q + wrap(i + 1, q);
    for (int t = 0; t < steps; ++t) {
      const i64 kb = kpart(i + j + off + t);
      const i64 kb_next = kpart(i + j + off + t + 1);
      if (t < steps - 1) {
        s.set_phase(Phase::kShift);
        s.exchange(kGrid, a_cur, mb * kb, left, a_nxt, mb * kb_next, right,
                   kTagShiftA, true);
        s.exchange(kGrid, b_cur, kb * nb, up, b_nxt, kb_next * nb, down,
                   kTagShiftB, true);
      }
      s.set_phase(Phase::kCompute);
      s.compute(a_cur, b_cur, kCPartial, mb, nb, kb, kb,
                gemm_flops(mb, nb, kb),
                gemm_operand_bytes(mb, nb, kb, esize) +
                    (t == 0 ? gemm_result_bytes(mb, nb, esize) : 0.0),
                true);
      s.set_phase(kInheritPhase);
      std::swap(a_cur, a_nxt);
      std::swap(b_cur, b_nxt);
    }
    s.free(kACur);
    s.free(kANxt);
    s.free(kBCur);
    s.free(kBNxt);

    // ---- reduce partial C across layers (row split) ----
    c_result = kCPartial;
    if (c > 1) {
      s.set_phase(Phase::kReduce);
      s.alloc(kCResult, block_size(mb, c, layer) * nb);
      const std::span<i64> counts =
          s.reduce_scatter(kRepl, kCPartial, kCResult, c, false, false);
      for (int l2 = 0; l2 < c; ++l2)
        counts[static_cast<size_t>(l2)] = block_size(mb, c, l2) * nb;
      s.set_phase(kInheritPhase);
      s.free(kCPartial);
      c_result = kCResult;
    }
  }
  redistribute_out(s, c_result);
}

}  // namespace ca3dmm
