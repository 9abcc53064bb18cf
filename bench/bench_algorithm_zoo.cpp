// Algorithm zoo: every PGEMM implementation in this repository side by side.
//
// Part 1 (cost model, paper scale): CA3DMM, CA3DMM-S, COSMA, CARMA, CTF and
// plain 2-D SUMMA on the Fig. 3 problem classes. This makes the paper's
// core premise visible: SUMMA has no k-parallelism, so for the large-K
// class it must move k-tall panels and collapses, while the 3-D algorithms
// stay near peak — the gap CA3DMM's unified view exists to close.
//
// Part 2 (real engine, reduced scale): all seven implementations — adding
// the true 2.5D algorithm and the three 1-D algorithms — run end to end on
// threads with real data, P = 16.
#include "bench_common.hpp"

#include "baselines/ctf_like.hpp"
#include "baselines/oned.hpp"
#include "baselines/p25d.hpp"
#include "baselines/summa.hpp"
#include "core/ca3dmm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm::bench {
namespace {

using costmodel::Algo;
using costmodel::Prediction;
using costmodel::Workload;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

void print_paper_scale() {
  const Machine mach = Machine::phoenix_mpi();
  const int P = 1536;
  std::printf(
      "\n=== Algorithm zoo (cost model, P=%d, native layouts, seconds) ===\n",
      P);
  TextTable t({"class", "CA3DMM", "CA3DMM-S", "COSMA", "CARMA(P=1024)",
               "CTF", "SUMMA(2D)", "2.5D"});
  for (const ProblemClass& pc : paper_classes()) {
    Workload w{pc.m, pc.n, pc.k};
    auto tt = [&](Algo a, int procs) {
      return format_seconds(costmodel::predict(a, w, procs, mach).t_total);
    };
    t.add_row({pc.name, tt(Algo::kCa3dmm, P), tt(Algo::kCa3dmmSumma, P),
               tt(Algo::kCosma, P), tt(Algo::kCarma, 1024), tt(Algo::kCtf, P),
               tt(Algo::kSumma, P), tt(Algo::kP25d, P)});
  }
  t.print();
  std::printf(
      "\nSUMMA's missing k-parallelism makes it collapse on large-K (it must\n"
      "stream k-tall panels); the 3-D algorithms stay close to each other —\n"
      "the unified-view premise of the paper.\n");
}

/// Runs one algorithm end to end on the engine; returns simulated seconds.
template <typename Fn>
double run_engine(i64 m, i64 n, i64 k, int P, const Machine& mach, Fn&& fn) {
  const BlockLayout a_lay = BlockLayout::col_1d(m, k, P);
  const BlockLayout b_lay = BlockLayout::col_1d(k, n, P);
  const BlockLayout c_lay = BlockLayout::col_1d(m, n, P);
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    std::vector<double> a, b;
    fill_local(a_lay, world.rank(), 5, a);
    fill_local(b_lay, world.rank(), 6, b);
    std::vector<double> c(
        static_cast<size_t>(c_lay.local_size(world.rank())));
    fn(world, a_lay, a.data(), b_lay, b.data(), c_lay, c.data());
  });
  return cl.aggregate_stats().vtime;
}

void print_engine_zoo() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  const int P = 16;
  std::printf(
      "\n=== Algorithm zoo (real engine, P=%d, simulated ms) ===\n", P);
  TextTable t({"class", "m,n,k", "CA3DMM", "COSMA", "CTF", "2.5D", "SUMMA",
               "1D-m", "1D-n", "1D-k"});
  struct SmallClass {
    const char* name;
    i64 m, n, k;
  };
  for (const SmallClass sc : {SmallClass{"square", 192, 192, 192},
                              {"large-K", 48, 48, 3072},
                              {"large-M", 3072, 48, 48},
                              {"flat", 384, 384, 24}}) {
    auto ms = [&](double s) { return strprintf("%.2f", s * 1e3); };
    const Ca3dmmPlan ca = Ca3dmmPlan::make(sc.m, sc.n, sc.k, P);
    const CosmaPlan cs = CosmaPlan::make(sc.m, sc.n, sc.k, P);
    const CtfPlan ct = CtfPlan::make(sc.m, sc.n, sc.k, P);
    const P25dPlan pd = P25dPlan::make(sc.m, sc.n, sc.k, P);
    const SummaPlan su = SummaPlan::make(sc.m, sc.n, sc.k, P);
    const CosmaPlan o_m = oned_m_plan(sc.m, sc.n, sc.k, P);
    const CosmaPlan o_n = oned_n_plan(sc.m, sc.n, sc.k, P);
    const CosmaPlan o_k = oned_k_plan(sc.m, sc.n, sc.k, P);
    t.add_row(
        {sc.name,
         strprintf("%lld,%lld,%lld", (long long)sc.m, (long long)sc.n,
                   (long long)sc.k),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         ca3dmm_multiply<double>(w, ca, false, false, la, a,
                                                 lb, b, lc, c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, cs, false, false, la, a, lb, b, lc,
                                          c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, ct, false, false, la, a, lb, b, lc,
                                          c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, pd, false, false, la, a, lb, b, lc,
                                          c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, su, false, false, la, a, lb, b, lc,
                                          c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, o_m, false, false, la, a, lb, b,
                                          lc, c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, o_n, false, false, la, a, lb, b,
                                          lc, c);
                       })),
         ms(run_engine(sc.m, sc.n, sc.k, P, mach,
                       [&](Comm& w, const BlockLayout& la, const double* a,
                           const BlockLayout& lb, const double* b,
                           const BlockLayout& lc, double* c) {
                         run_plan<double>(w, o_k, false, false, la, a, lb, b,
                                          lc, c);
                       }))});
  }
  t.print();
  std::printf(
      "\n(Every run takes 1-D column user layouts. An algorithm converts\n"
      "only the operands whose native layout differs: 1D-n none of B and C,\n"
      "CA3DMM on large-K (1x1x16) none of A. Grids are chosen for the\n"
      "multiply alone, so the layout match decides the small classes.)\n");
}

void register_benchmarks() {
  const Machine mach = Machine::phoenix_mpi();
  for (const ProblemClass& pc : paper_classes())
    for (Algo algo : {Algo::kCa3dmm, Algo::kSumma}) {
      Workload w{pc.m, pc.n, pc.k};
      const Prediction p = costmodel::predict(algo, w, 1536, mach);
      register_sim_time(strprintf("zoo/%s/%s/P=1536",
                                  costmodel::algo_name(algo), pc.name),
                        p.t_total);
    }
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  ca3dmm::bench::register_benchmarks();
  return ca3dmm::bench::run_bench_main(argc, argv, [] {
    ca3dmm::bench::print_paper_scale();
    ca3dmm::bench::print_engine_zoo();
  });
}
