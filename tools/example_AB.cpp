// example_AB — command-line PGEMM driver matching the paper artifact.
//
// The SC22 artifact's example program is invoked as
//
//   mpirun -np <nprocs> ./example_AB.exe <M> <N> <K> <transA> <transB>
//          <validation> <ntest> <dtype> [mp np kp]
//
// This tool accepts the same positional arguments (nprocs first, since there
// is no mpirun here — ranks are simulated threads) and produces the same
// style of on-screen output: partition info, per-phase timing lines for each
// test repetition, engine summaries, and a correctness check.
//
//   ./example_AB <nprocs> <M> <N> <K> <transA> <transB> <validation>
//                <ntest> <dtype> [mp np kp]
//
//   transA/transB: 0|1      validation: 0|1      ntest: repetitions
//   dtype: 0 = simulated CPU cluster, 1 = simulated GPU cluster
//   mp np kp: optional forced process grid (mp*np*kp <= nprocs)
//
// Run with no arguments for a small demonstration configuration.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/ca3dmm.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

using namespace ca3dmm;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using simmpi::Phase;

namespace {

struct Args {
  int nprocs = 8;
  i64 m = 320, n = 320, k = 320;
  bool trans_a = false, trans_b = false;
  bool validate = true;
  int ntest = 3;
  int dtype = 0;
  std::optional<ProcGrid> grid{};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <nprocs> <M> <N> <K> <transA> <transB> "
               "<validation> <ntest> <dtype> [mp np kp]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc == 1) return a;  // demo defaults
  if (argc != 10 && argc != 13) usage(argv[0]);
  a.nprocs = std::atoi(argv[1]);
  a.m = std::atoll(argv[2]);
  a.n = std::atoll(argv[3]);
  a.k = std::atoll(argv[4]);
  a.trans_a = std::atoi(argv[5]) != 0;
  a.trans_b = std::atoi(argv[6]) != 0;
  a.validate = std::atoi(argv[7]) != 0;
  a.ntest = std::atoi(argv[8]);
  a.dtype = std::atoi(argv[9]);
  if (argc == 13)
    a.grid = ProcGrid{std::atoi(argv[10]), std::atoi(argv[11]),
                      std::atoi(argv[12])};
  if (a.nprocs < 1 || a.m < 1 || a.n < 1 || a.k < 1 || a.ntest < 0)
    usage(argv[0]);
  return a;
}

void print_ms_row(const char* label, const std::vector<double>& ms) {
  std::printf("%-18s:", label);
  for (double v : ms) std::printf(" %.0f", v * 1e3);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Machine mach = a.dtype == 1 ? Machine::phoenix_gpu() : Machine::phoenix_mpi();

  Ca3dmmOptions opt;
  opt.force_grid = a.grid;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(a.m, a.n, a.k, a.nprocs, opt);

  std::printf("Test problem size m * n * k : %lld * %lld * %lld\n",
              static_cast<long long>(a.m), static_cast<long long>(a.n),
              static_cast<long long>(a.k));
  std::printf("Transpose A / B             : %d / %d\n", a.trans_a, a.trans_b);
  std::printf("Number of tests             : %d\n", a.ntest);
  std::printf("Check result correctness    : %d\n", a.validate);
  std::printf("Device type                 : %d\n", a.dtype);
  std::printf("CA3DMM partition info:\n");
  std::printf("Process grid mp * np * kp   : %d * %d * %d\n", plan.grid().pm,
              plan.grid().pn, plan.grid().pk);
  std::printf("Work cuboid  mb * nb * kb   : %lld * %lld * %lld\n",
              static_cast<long long>(ceil_div(a.m, plan.grid().pm)),
              static_cast<long long>(ceil_div(a.n, plan.grid().pn)),
              static_cast<long long>(ceil_div(a.k, plan.grid().pk)));
  std::printf("Process utilization         : %.2f %%\n",
              100.0 * plan.active() / a.nprocs);
  std::printf("Comm. volume / lower bound  : %.2f\n",
              plan.comm_volume_per_rank() / plan.volume_lower_bound());

  // 1-D column user layouts, like the artifact's example program.
  const BlockLayout a_lay = BlockLayout::col_1d(a.trans_a ? a.k : a.m,
                                                a.trans_a ? a.m : a.k, a.nprocs);
  const BlockLayout b_lay = BlockLayout::col_1d(a.trans_b ? a.n : a.k,
                                                a.trans_b ? a.k : a.n, a.nprocs);
  const BlockLayout c_lay = BlockLayout::col_1d(a.m, a.n, a.nprocs);

  // Reference result for validation (serial).
  Matrix<double> c_ref;
  if (a.validate) {
    Matrix<double> am(a_lay.rows(), a_lay.cols()), bm(b_lay.rows(), b_lay.cols());
    am.fill_random(1);
    bm.fill_random(2);
    c_ref.resize(a.m, a.n);
    gemm_ref<double>(a.trans_a, a.trans_b, a.m, a.n, a.k, 1.0, am.data(),
                     bm.data(), c_ref.data());
  }

  std::vector<double> t_total, t_redist, t_repl, t_cannon, t_gemm, t_reduce;
  long errors = 0;

  Cluster cl(a.nprocs, mach);
  for (int t = 0; t < std::max(1, a.ntest); ++t) {
    cl.run([&](Comm& world) {
      const int me = world.rank();
      std::vector<double> al, bl;
      fill_local(a_lay, me, 1, al);
      fill_local(b_lay, me, 2, bl);
      std::vector<double> clq(static_cast<size_t>(c_lay.local_size(me)));
      ca3dmm_multiply<double>(world, plan, a.trans_a, a.trans_b, a_lay,
                              al.data(), b_lay, bl.data(), c_lay, clq.data());
      if (a.validate) {
        i64 pos = 0;
        long my_err = 0;
        for (const Rect& r : c_lay.rects_of(me))
          for (i64 i = r.r.lo; i < r.r.hi; ++i)
            for (i64 j = r.c.lo; j < r.c.hi; ++j)
              if (std::abs(clq[static_cast<size_t>(pos++)] - c_ref(i, j)) >
                  1e-10 * static_cast<double>(a.k))
                my_err++;
        if (my_err) std::fprintf(stderr, "rank %d: %ld errors\n", me, my_err);
        errors += my_err;
      }
    });
    const auto agg = cl.aggregate_stats();
    t_total.push_back(agg.vtime);
    t_redist.push_back(agg.phase(Phase::kRedistribute));
    t_repl.push_back(agg.phase(Phase::kReplicate));
    t_cannon.push_back(agg.phase(Phase::kShift));
    t_gemm.push_back(agg.phase(Phase::kCompute));
    t_reduce.push_back(agg.phase(Phase::kReduce));
  }

  std::printf("\nPer-test simulated timings (ms):\n");
  print_ms_row("A, B, C redist", t_redist);
  print_ms_row("A / B allgather", t_repl);
  print_ms_row("2D Cannon", t_cannon);
  print_ms_row("local GEMM", t_gemm);
  print_ms_row("C reduce-scatter", t_reduce);
  print_ms_row("total execution", t_total);

  double avg = 0;
  for (double v : t_total) avg += v;
  avg /= static_cast<double>(t_total.size());
  std::printf("\n================ CA3DMM algorithm engine ================\n");
  std::printf("* Number of executions  : %d\n", std::max(1, a.ntest));
  std::printf("* Execution time (avg)  : %.2f ms\n", avg * 1e3);
  std::printf("==========================================================\n");
  if (a.validate)
    std::printf("CA3DMM output : %ld error(s)\n", errors);
  return errors == 0 ? 0 : 1;
}
