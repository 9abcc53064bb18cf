#include "baselines/p25d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/engine2d.hpp"

namespace ca3dmm {

using simmpi::Phase;

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
  const i64 k = plan.k();

  const i64 a_init = plan.a_rect(me).size(), b_init = plan.b_rect(me).size();
  redistribute_in(s, a_init, b_init, trans_a, trans_b);

  s.split(kWorld, kActive, is_active ? 0 : -1, me, false);
  int c_result = kCResult;
  if (is_active) {
    s.split(kActive, kGrid, layer, idx, false);  // my layer's q x q grid
    s.split(kActive, kRepl, c /*offset*/ + idx, layer, false);  // fixed (i, j)
    const i64 mb = block_size(plan.m(), q, i), nb = block_size(plan.n(), q, j);
    thread_local std::vector<i64> kparts;  // the cost model builds P schedules
    kparts.resize(static_cast<size_t>(q));
    for (int t = 0; t < q; ++t)
      kparts[static_cast<size_t>(t)] = block_size(k, q, t);
    const Engine2dShape sh{q, q, i, j, mb, nb, kparts, kparts, false, true};

    // ---- replicate layer 0's blocks down the layer dimension. Every
    // active rank sizes its blocks for the largest k-part (the 2.5D
    // extra-memory cost). ----
    const i64 kb_max = ceil_div(k, q);
    s.alloc(kABlk, mb * kb_max);
    s.alloc(kBBlk, kb_max * nb);
    s.set_phase(Phase::kReplicate);
    if (layer == 0) s.copy(kAInit, 0, 0, kABlk, 0, 0, 1, a_init);
    s.bcast(kRepl, kABlk, mb * kparts[static_cast<size_t>(j)], 0, false);
    if (layer == 0) s.copy(kBInit, 0, 0, kBBlk, 0, 0, 1, b_init);
    s.bcast(kRepl, kBBlk, kparts[static_cast<size_t>(i)] * nb, 0, false);
    s.set_phase(kInheritPhase);
    s.free(kAInit);
    s.free(kBInit);

    // ---- layer `layer` runs global shift steps [first, first + steps) ----
    s.alloc(kCPartial, mb * nb, /*zero=*/true);
    cannon_schedule(s, sh, kGrid, kABlk, kBBlk, kCPartial, 0,
                    static_cast<int>(block_start(q, c, layer)),
                    static_cast<int>(block_size(q, c, layer)),
                    {kABlk, kBBlk});

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
