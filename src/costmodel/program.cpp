#include "costmodel/model.hpp"

#include <memory>
#include <type_traits>

#include "baselines/ctf_like.hpp"
#include "baselines/p25d.hpp"
#include "core/ca3dmm.hpp"

namespace ca3dmm::costmodel {

using simmpi::Comm;
using simmpi::Machine;

Ca3dmmOptions options_of(const Workload& w, bool use_summa) {
  Ca3dmmOptions opt;
  opt.use_summa = use_summa;
  opt.min_kblk = w.min_kblk;
  opt.force_grid = w.force_grid;
  opt.coll = w.coll;
  opt.abft = w.abft;
  opt.overlap = w.overlap;
  opt.k_weights = w.k_weights;
  return opt;
}

Workload workload_of(i64 m, i64 n, i64 k, const Ca3dmmOptions& opt) {
  Workload w{m, n, k};
  w.force_grid = opt.force_grid;
  w.min_kblk = opt.min_kblk;
  w.coll = opt.coll.value_or(simmpi::CollectiveConfig{});
  w.abft = opt.abft;
  w.overlap = opt.overlap;
  w.k_weights = opt.k_weights;
  return w;
}

namespace {

/// A 2-D baseline's forced (first, second) grid pair: pm and `second`.
std::optional<std::pair<int, int>> force_pair(const Workload& w, int second) {
  if (!w.force_grid) return std::nullopt;
  return std::make_pair(w.force_grid->pm, second);
}

}  // namespace

Program program_of(Algo algo, const Workload& w, int P,
                   const Machine& anchor) {
  Program pg;
  pg.nranks = P;
  pg.esize = w.esize;
  const auto col_1d = [&](i64 rows, i64 cols) {
    return BlockLayout::col_1d(rows, cols, P);
  };
  // The plan's layouts (natives from `np`: CTF's inner plan), and one
  // shared copy of it for its builder and its public executor.
  const auto emit = [&](const auto& the_plan, const auto& np, auto build,
                        auto multiply) {
    const auto plan =
        std::make_shared<const std::decay_t<decltype(the_plan)>>(the_plan);
    pg.layouts[kNativeA] = np.a_native();
    pg.layouts[kNativeB] = np.b_native();
    pg.layouts[kNativeC] = np.c_native();
    pg.layouts[kUserLayoutA] =
        w.custom_layout ? col_1d(w.m, w.k) : pg.layouts[kNativeA];
    pg.layouts[kUserLayoutB] =
        w.custom_layout ? col_1d(w.k, w.n) : pg.layouts[kNativeB];
    pg.layouts[kUserLayoutC] =
        w.custom_layout ? col_1d(w.m, w.n) : pg.layouts[kNativeC];
    pg.active = np.active();
    pg.build = [plan, build](int r, Schedule& s) { build(*plan, r, s); };
    pg.execute = [plan, multiply, la = pg.layouts[kUserLayoutA],
                  lb = pg.layouts[kUserLayoutB], lc = pg.layouts[kUserLayoutC]](
                     Comm& world, const double* a, const double* b, double* c) {
      multiply(world, *plan, false, false, la, a, lb, b, lc, c);
    };
  };
  switch (algo) {
    case Algo::kCa3dmm:
    case Algo::kCa3dmmSumma: {
      const Ca3dmmPlan plan = Ca3dmmPlan::make(
          w.m, w.n, w.k, P, options_of(w, algo == Algo::kCa3dmmSumma));
      emit(
          plan, plan,
          [](const Ca3dmmPlan& p, int r, Schedule& s) {
            build_schedule(p, r, false, false, s);
          },
          [](auto&&... args) { ca3dmm_multiply<double>(args...); });
      pg.grid = plan.grid();
      break;
    }
    case Algo::kCosma:
    case Algo::kCarma: {
      const CosmaPlan plan =
          algo == Algo::kCarma ? CosmaPlan::make_carma(w.m, w.n, w.k, P)
                               : CosmaPlan::make(w.m, w.n, w.k, P, w.force_grid);
      emit(
          plan, plan,
          [anchor](const CosmaPlan& p, int r, Schedule& s) {
            build_schedule(p, r, anchor, false, false, s);
          },
          [](auto&&... args) { cosma_multiply<double>(args...); });
      pg.grid = plan.grid();
      break;
    }
    case Algo::kCtf: {
      const CtfPlan plan = CtfPlan::make(w.m, w.n, w.k, P);
      emit(
          plan, plan.inner,
          [anchor](const CtfPlan& p, int r, Schedule& s) {
            build_schedule(p, r, anchor, false, false, s);
          },
          [](auto&&... args) { ctf_multiply<double>(args...); });
      pg.layouts[kCyclicA] = col_1d(w.m, w.k);
      pg.layouts[kCyclicB] = col_1d(w.k, w.n);
      pg.grid = plan.inner.grid();
      break;
    }
    case Algo::kSumma: {  // forced grids give (pr, pc) as (pm, pn)
      const SummaPlan plan = SummaPlan::make(
          w.m, w.n, w.k, P, force_pair(w, w.force_grid ? w.force_grid->pn : 0));
      emit(
          plan, plan,
          [](const SummaPlan& p, int r, Schedule& s) {
            build_schedule(p, r, /*panel_kb=*/0, false, false, s);
          },
          [](auto&&... args) { summa_multiply<double>(args...); });
      pg.grid = ProcGrid{plan.pr(), plan.pc(), 1};
      break;
    }
    case Algo::kP25d: {  // forced grids give (q, c) as (pm, pk)
      const P25dPlan plan = P25dPlan::make(
          w.m, w.n, w.k, P, force_pair(w, w.force_grid ? w.force_grid->pk : 0));
      emit(
          plan, plan,
          [](const P25dPlan& p, int r, Schedule& s) {
            build_schedule(p, r, false, false, s);
          },
          [](auto&&... args) { p25d_multiply<double>(args...); });
      pg.grid = ProcGrid{plan.q(), plan.q(), plan.c()};
      break;
    }
  }
  return pg;
}

}  // namespace ca3dmm::costmodel
