#include "costmodel/model.hpp"

namespace ca3dmm::costmodel {

namespace {

/// A 2-D baseline's forced (first, second) grid pair: pm and `second`.
std::optional<std::pair<int, int>> force_pair(const Workload& w, int second) {
  if (!w.force_grid) return std::nullopt;
  return std::make_pair(w.force_grid->pm, second);
}

}  // namespace

Program program_of(Algo algo, const Workload& w, int P) {
  Program pg;
  pg.esize = w.esize;
  const auto col_1d = [&](i64 rows, i64 cols) {
    return BlockLayout::col_1d(rows, cols, P);
  };
  switch (algo) {
    case Algo::kCa3dmm:
    case Algo::kCa3dmmSumma: {
      CA_REQUIRE(!w.use_summa || algo == Algo::kCa3dmmSumma,
                 "a Workload with use_summa runs as kCa3dmmSumma, not %s",
                 algo_name(algo));
      Ca3dmmOptions opt = w;
      opt.use_summa = algo == Algo::kCa3dmmSumma;
      pg.plan = Ca3dmmPlan::make(w.m, w.n, w.k, P, opt);
      break;
    }
    case Algo::kCosma:
      pg.plan = CosmaPlan::make(w.m, w.n, w.k, P, w.force_grid);
      break;
    case Algo::kCarma:
      pg.plan = CosmaPlan::make_carma(w.m, w.n, w.k, P);
      break;
    case Algo::kCtf: {
      const CtfPlan& plan =
          pg.plan.emplace<CtfPlan>(CtfPlan::make(w.m, w.n, w.k, P));
      pg.layouts[kCyclicA] = plan.a_cyclic(false);
      pg.layouts[kCyclicB] = plan.b_cyclic(false);
      break;
    }
    case Algo::kSumma:  // forced grids give (pr, pc) as (pm, pn)
      pg.plan = SummaPlan::make(
          w.m, w.n, w.k, P, force_pair(w, w.force_grid ? w.force_grid->pn : 0));
      break;
    case Algo::kP25d:  // forced grids give (q, c) as (pm, pk)
      pg.plan = P25dPlan::make(
          w.m, w.n, w.k, P, force_pair(w, w.force_grid ? w.force_grid->pk : 0));
      break;
  }
  std::visit(
      [&](const auto& plan) {
        pg.layouts[kNativeA] = plan.a_native();
        pg.layouts[kNativeB] = plan.b_native();
        pg.layouts[kNativeC] = plan.c_native();
      },
      pg.plan);
  pg.layouts[kUserLayoutA] =
      w.custom_layout ? col_1d(w.m, w.k) : pg.layouts[kNativeA];
  pg.layouts[kUserLayoutB] =
      w.custom_layout ? col_1d(w.k, w.n) : pg.layouts[kNativeB];
  pg.layouts[kUserLayoutC] =
      w.custom_layout ? col_1d(w.m, w.n) : pg.layouts[kNativeC];
  return pg;
}

}  // namespace ca3dmm::costmodel
