// Figure 3: strong scaling of COSMA, CA3DMM, and CTF for the four problem
// classes, in percent of machine peak, with library-native and 1-D column
// ("custom") matrix layouts, P = 192..3072 cores (pure MPI, 1 core/rank).
//
// Paper shape to reproduce:
//   * CA3DMM and COSMA scale well with native layouts on all classes;
//   * CA3DMM >= COSMA on square and flat, ~equal on large-K and large-M;
//   * CTF is far below both;
//   * custom (1-D column) layouts collapse efficiency for the
//     tall-and-skinny classes (large-K, large-M) due to conversion cost.
#include <chrono>

#include "bench_common.hpp"
#include "core/ca3dmm.hpp"
#include "costmodel/drift.hpp"
#include "linalg/gemm.hpp"

namespace ca3dmm::bench {
namespace {

using costmodel::Algo;
using costmodel::Prediction;
using costmodel::Workload;
using simmpi::Machine;

/// Set when the real-execution drift or zero-fill gate fails; main() turns
/// it into a nonzero exit.
bool g_gate_failed = false;

/// Real execution at the figure's two largest process counts, and at
/// P=12288 (4x the paper's largest), on the fiber backend — the whole point
/// of fibers is that thousands of ranks fit in one address space on one
/// box, so the strong-scaling figure's upper end can be *executed*, not
/// just predicted. Shapes are miniature (960^3; the m/n blocks divide
/// evenly) and the executed virtual times must match the model to
/// rounding; drift beyond the 1e-6 gate fails the binary, same regime as
/// bench_fig5_breakdown's P=16 gate but at up to 768x the rank count.
///
/// Each executed point runs twice on one Cluster (the repeated run reuses
/// its fiber stacks and rank memory blocks) and prints each run's
/// HostProfile: context switches, steals, migrations, lock acquisitions and contention
/// per lock class, p2p bytes copied, pool zero fills and schedule copies,
/// and the kernel's share (page faults, voluntary switches, system CPU) —
/// what the host spent on the run. Only the GEMM accumulators (one mb x nb
/// partial C per rank) need zeroed memory; a run whose schedules zero more
/// fails the binary like drift does (the count is deterministic). Each
/// point also prints the largest per-rank arena its compiled schedules
/// pack into, next to the largest tracked peak.
///
/// ranks_per_node is 16 here (not Phoenix's 24) so node boundaries align
/// with the 256-rank Cannon groups. A group that straddles a node boundary
/// makes ranks asymmetric — early arrivers charge their barrier wait to
/// misc — which breaks only the per-phase *attribution* (totals stay
/// exact), but this gate pins every phase.
void print_real_execution() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 16;
  mach.cores_per_node = 16;
  struct RealCase {
    int P;
    ProcGrid grid;
  };
  const RealCase reals[] = {
      {1536, ProcGrid{16, 16, 6}},
      {3072, ProcGrid{16, 16, 12}},
      {12288, ProcGrid{32, 32, 12}},
  };
  std::printf(
      "\n=== real execution on fibers: executed vs predicted, "
      "m=n=k=960 (local GEMM clone: %s) ===\n",
      gemm_isa_name());
  for (const RealCase& rc : reals) {
    Workload w{960, 960, 960};
    w.force_grid = rc.grid;
    simmpi::Cluster cl(rc.P, mach);
    // Executed twice on one Cluster: the first run maps the fiber stacks
    // and grows the rank blocks, the repeated run reuses both.
    for (const char* which : {"first run", "repeated run"}) {
      const auto t0 = std::chrono::steady_clock::now();
      const costmodel::DriftReport rep =
          costmodel::check_drift(Algo::kCa3dmm, w, cl);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::printf("\n-- P=%d  grid %s  %s (host wall %.2f s) --\n%s", rc.P,
                  grid_str(rc.grid).c_str(), which, wall, rep.table().c_str());
      // Host-side counters of the executed run (outside the determinism
      // contract: they move with the worker count and host timing).
      std::printf("host profile:\n%s", cl.host_profile().table().c_str());
      if (!rep.ok()) {
        g_gate_failed = true;
        std::printf("^^ DRIFT GATE FAILED at P=%d (%s)\n", rc.P, which);
      }
      const i64 acc_bytes = static_cast<i64>(rc.P) * (w.m / rc.grid.pm) *
                            (w.n / rc.grid.pn) * w.esize;
      if (cl.host_profile().pool_zeroed_bytes > acc_bytes) {
        g_gate_failed = true;
        std::printf("^^ ZERO-FILL GATE FAILED at P=%d (%s): %lld B zeroed, "
                    "accumulators are %lld B\n",
                    rc.P, which,
                    static_cast<long long>(cl.host_profile().pool_zeroed_bytes),
                    static_cast<long long>(acc_bytes));
      }
    }
    const Ca3dmmPlan plan =
        Ca3dmmPlan::make(w.m, w.n, w.k, rc.P, w);
    i64 arena = 0;
    for (int r = 0; r < rc.P; ++r) {
      Schedule s(w.esize);
      build_schedule(plan, r, mach, false, false, s);
      s.pack();
      arena = std::max(arena, s.arena_bytes());
    }
    std::printf("arena: largest per rank %lld B, tracked peak %lld B\n",
                static_cast<long long>(arena),
                static_cast<long long>(cl.aggregate_stats().peak_bytes));
  }
  std::printf("\nreal-execution drift and zero-fill gates: %s (rtol %.1e)\n",
              g_gate_failed ? "FAIL" : "ok",
              costmodel::DriftOptions{}.rtol);
}

void print_tables() {
  const Machine mach = Machine::phoenix_mpi();
  for (bool custom : {false, true}) {
    std::printf("\n=== Fig. 3 (%s layout): %% of peak vs processes ===\n",
                custom ? "custom 1-D column" : "library-native");
    for (const ProblemClass& pc : paper_classes()) {
      TextTable t({"class", "P", "CA3DMM grid", "CA3DMM %pk", "COSMA %pk",
                   "CTF %pk", "CA3DMM s", "COSMA s", "CTF s"});
      for (int P : paper_process_counts()) {
        Workload w{pc.m, pc.n, pc.k};
        w.custom_layout = custom;
        const Prediction ca = costmodel::predict(Algo::kCa3dmm, w, P, mach);
        const Prediction co = costmodel::predict(Algo::kCosma, w, P, mach);
        const Prediction ct = costmodel::predict(Algo::kCtf, w, P, mach);
        t.add_row({pc.name, strprintf("%d", P), grid_str(ca.grid),
                   strprintf("%.1f", ca.pct_peak(pc.m, pc.n, pc.k, P, mach)),
                   strprintf("%.1f", co.pct_peak(pc.m, pc.n, pc.k, P, mach)),
                   strprintf("%.1f", ct.pct_peak(pc.m, pc.n, pc.k, P, mach)),
                   format_seconds(ca.t_total), format_seconds(co.t_total),
                   format_seconds(ct.t_total)});
      }
      t.print();
      std::printf("\n");
    }
  }
  // Plot-ready data: one CSV per layout mode covering all classes.
  for (bool custom : {false, true}) {
    TextTable csv({"class", "P", "algo", "pct_peak", "seconds"});
    for (const ProblemClass& pc : paper_classes())
      for (int P : paper_process_counts())
        for (Algo algo : {Algo::kCa3dmm, Algo::kCosma, Algo::kCtf}) {
          Workload w{pc.m, pc.n, pc.k};
          w.custom_layout = custom;
          const Prediction p = costmodel::predict(algo, w, P, mach);
          csv.add_row({pc.name, strprintf("%d", P),
                       costmodel::algo_name(algo),
                       strprintf("%.2f", p.pct_peak(pc.m, pc.n, pc.k, P, mach)),
                       strprintf("%.4f", p.t_total)});
        }
    csv.write_csv(custom ? "fig3_custom_layout.csv" : "fig3_native_layout.csv");
  }
  std::printf("wrote fig3_native_layout.csv and fig3_custom_layout.csv\n");
  print_real_execution();
}

void register_benchmarks() {
  const Machine mach = Machine::phoenix_mpi();
  for (const ProblemClass& pc : paper_classes()) {
    for (int P : paper_process_counts()) {
      for (Algo algo : {Algo::kCa3dmm, Algo::kCosma, Algo::kCtf}) {
        Workload w{pc.m, pc.n, pc.k};
        const Prediction p = costmodel::predict(algo, w, P, mach);
        register_sim_time(strprintf("fig3/%s/%s/P=%d",
                                    costmodel::algo_name(algo), pc.name, P),
                          p.t_total);
      }
    }
  }
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  ca3dmm::bench::register_benchmarks();
  const int rc = ca3dmm::bench::run_bench_main(argc, argv,
                                               ca3dmm::bench::print_tables);
  if (rc != 0) return rc;
  return ca3dmm::bench::g_gate_failed ? 3 : 0;
}
