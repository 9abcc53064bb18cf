#include "baselines/summa.hpp"

#include <algorithm>

#include "linalg/gemm.hpp"

namespace ca3dmm {

using simmpi::Phase;

SummaPlan SummaPlan::make(i64 m, i64 n, i64 k, int nranks,
                          std::optional<std::pair<int, int>> force_grid) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && nranks > 0,
             "SUMMA needs positive dimensions");
  SummaPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  if (force_grid) {
    p.pr_ = force_grid->first;
    p.pc_ = force_grid->second;
    CA_REQUIRE(p.pr_ * p.pc_ <= nranks, "forced SUMMA grid exceeds ranks");
    p.natives_ = NativeLayouts::of(p);
    return p;
  }
  // Best 2-D factorization under the same composite objective as CA3DMM's
  // solver, with pk pinned to 1 (SUMMA has no k parallelism).
  int max_active = 1;
  for (int pr = 1; pr <= nranks && pr <= m; ++pr)
    max_active = std::max(
        max_active, pr * static_cast<int>(std::min<i64>(n, nranks / pr)));
  const int min_active =
      std::min(static_cast<int>(0.95 * nranks), max_active);
  double best = 1e300;
  for (int pr = 1; pr <= nranks && pr <= m; ++pr) {
    const int pc_lim = static_cast<int>(std::min<i64>(n, nranks / pr));
    for (int pc = 1; pc <= pc_lim; ++pc) {
      if (pr * pc < min_active) continue;
      const double cost = grid_objective(m, n, k, ProcGrid{pr, pc, 1});
      if (cost < best) {
        best = cost;
        p.pr_ = pr;
        p.pc_ = pc;
      }
    }
  }
  p.natives_ = NativeLayouts::of(p);
  return p;
}

Rect SummaPlan::a_rect(int r) const {
  if (r >= active()) return Rect{};
  return Rect{block_range(m_, pr_, r / pc_), block_range(k_, pc_, r % pc_)};
}

Rect SummaPlan::b_rect(int r) const {
  if (r >= active()) return Rect{};
  return Rect{block_range(k_, pr_, r / pc_), block_range(n_, pc_, r % pc_)};
}

Rect SummaPlan::c_rect(int r) const {
  if (r >= active()) return Rect{};
  return Rect{block_range(m_, pr_, r / pc_), block_range(n_, pc_, r % pc_)};
}

void build_schedule(const SummaPlan& plan, int me, const simmpi::Machine&,
                    bool trans_a, bool trans_b, Schedule& s) {
  const int pr = plan.pr(), pc = plan.pc();
  const bool is_active = me < plan.active();
  const int gi = me / pc, gj = me % pc;
  const i64 k = plan.k(), esize = s.esize();

  redistribute_in(s, plan.a_rect(me).size(), plan.b_rect(me).size(), trans_a,
                  trans_b);

  s.split(kWorld, kActive, is_active ? 0 : -1, me, false);
  if (is_active) {
    s.split(kActive, kRow, gi, gj, false);
    s.split(kActive, kCol, pr + gj, gi, false);
    const Range a_kr = block_range(k, pc, gj);  // my A block's k columns
    const Range b_kr = block_range(k, pr, gi);  // my B block's k rows
    const i64 mb = block_size(plan.m(), pr, gi), nb = block_size(plan.n(), pc, gj);
    s.alloc(kCResult, mb * nb, /*zero=*/true);

    // Panel walk: intervals never straddle an A column-block or B row-block
    // boundary.
    const auto panel_end = [&](i64 k0) {
      return std::min(block_range(k, pc, block_of_index(k, pc, k0)).hi,
                      block_range(k, pr, block_of_index(k, pr, k0)).hi);
    };
    i64 kb_max = 0;
    for (i64 k0 = 0; k0 < k; k0 = panel_end(k0))
      kb_max = std::max(kb_max, panel_end(k0) - k0);
    s.alloc(kACur, mb * kb_max);  // the panels
    s.alloc(kBCur, kb_max * nb);

    for (i64 k0 = 0; k0 < k;) {
      const int a_owner_col = static_cast<int>(block_of_index(k, pc, k0));
      const int b_owner_row = static_cast<int>(block_of_index(k, pr, k0));
      const i64 k1 = panel_end(k0), w = k1 - k0;
      s.set_phase(Phase::kShift);
      // The owners pack my columns / rows [k0, k1) into the panels.
      if (gj == a_owner_col)
        s.copy(kAInit, k0 - a_kr.lo, a_kr.size(), kACur, 0, w, mb, w);
      s.bcast(kRow, kACur, mb * w, a_owner_col, true);
      if (gi == b_owner_row)
        s.copy(kBInit, (k0 - b_kr.lo) * nb, 0, kBCur, 0, 0, 1, w * nb);
      s.bcast(kCol, kBCur, w * nb, b_owner_row, true);
      s.set_phase(Phase::kCompute);
      s.compute(kACur, kBCur, kCResult, mb, nb, w, w,
                gemm_flops(mb, nb, w),
                gemm_operand_bytes(mb, nb, w, esize) +
                    (k0 == 0 ? gemm_result_bytes(mb, nb, esize) : 0.0),
                true);
      s.set_phase(kInheritPhase);
      k0 = k1;
    }
    s.free(kBCur);
    s.free(kACur);
  }

  // The initial operand buffers are dead once the panel loop finishes.
  s.free(kAInit);
  s.free(kBInit);
  redistribute_out(s, kCResult);
}

}  // namespace ca3dmm
