#include "baselines/summa.hpp"

#include <algorithm>
#include <vector>

#include "core/engine2d.hpp"

namespace ca3dmm {

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
  const i64 k = plan.k();

  redistribute_in(s, plan.a_rect(me).size(), plan.b_rect(me).size(), trans_a,
                  trans_b);

  s.split(kWorld, kActive, is_active ? 0 : -1, me, false);
  if (is_active) {
    // A's k range is split over the pc grid columns, B's over the pr rows.
    thread_local std::vector<i64> kparts;  // the cost model builds P schedules
    kparts.resize(static_cast<size_t>(pc + pr));
    for (int t = 0; t < pc; ++t)
      kparts[static_cast<size_t>(t)] = block_size(k, pc, t);
    for (int t = 0; t < pr; ++t)
      kparts[static_cast<size_t>(pc + t)] = block_size(k, pr, t);
    const std::span<const i64> all = kparts;
    const i64 mb = block_size(plan.m(), pr, gi);
    const i64 nb = block_size(plan.n(), pc, gj);
    const Engine2dShape sh{pr, pc, gi, gj, mb, nb, all.first(pc),
                           all.subspan(pc), false, true};
    s.alloc(kCResult, mb * nb, /*zero=*/true);
    summa_schedule(s, sh, kActive, kAInit, kBInit, kCResult,
                   {kAInit, kBInit});
  }
  redistribute_out(s, kCResult);
}

}  // namespace ca3dmm
