#include "costmodel/model.hpp"

namespace ca3dmm::costmodel {

Ca3dmmOptions options_of(const Workload& w, bool use_summa) {
  Ca3dmmOptions opt;
  opt.grid = w.grid;
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
  w.grid = opt.grid;
  return w;
}

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
    case Algo::kCa3dmmSumma:
      pg.plan = Ca3dmmPlan::make(w.m, w.n, w.k, P,
                                 options_of(w, algo == Algo::kCa3dmmSumma));
      break;
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
