// trace_dump — run one simulated PGEMM with tracing on and dump the results.
//
//   ./trace_dump <nprocs> <M> <N> <K> [algo] [trace.json]
//
//   algo:       ca3dmm (default) | ca3dmm-summa | cosma | carma | ctf |
//               summa | 2.5d
//   trace.json: Chrome trace-event output path (open in chrome://tracing or
//               https://ui.perfetto.dev). Omit to skip the JSON export.
//
// Prints the per-phase aggregate table, the virtual-time critical path, and
// the prediction-drift join against the analytic cost model. Exits nonzero
// if any phase drifts outside tolerance, so it can serve as a scriptable
// gate. Run with no arguments for a small demonstration configuration.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "costmodel/drift.hpp"
#include "simmpi/trace.hpp"

using namespace ca3dmm;
using costmodel::Algo;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <nprocs> <M> <N> <K> [algo] [trace.json]\n"
               "  algo: ca3dmm | ca3dmm-summa | cosma | carma | ctf | summa "
               "| 2.5d\n",
               argv0);
  std::exit(2);
}

Algo parse_algo(const char* s) {
  if (!std::strcmp(s, "ca3dmm")) return Algo::kCa3dmm;
  if (!std::strcmp(s, "ca3dmm-summa")) return Algo::kCa3dmmSumma;
  if (!std::strcmp(s, "cosma")) return Algo::kCosma;
  if (!std::strcmp(s, "carma")) return Algo::kCarma;
  if (!std::strcmp(s, "ctf")) return Algo::kCtf;
  if (!std::strcmp(s, "summa")) return Algo::kSumma;
  if (!std::strcmp(s, "2.5d")) return Algo::kP25d;
  std::fprintf(stderr, "unknown algorithm '%s'\n", s);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  int P = 16;
  costmodel::Workload w{96, 96, 96};
  Algo algo = Algo::kCa3dmm;
  std::string json_path;
  if (argc != 1) {
    if (argc < 5 || argc > 7) usage(argv[0]);
    P = std::atoi(argv[1]);
    w.m = std::atoll(argv[2]);
    w.n = std::atoll(argv[3]);
    w.k = std::atoll(argv[4]);
    if (argc >= 6) algo = parse_algo(argv[5]);
    if (argc >= 7) json_path = argv[6];
    if (P <= 0 || w.m <= 0 || w.n <= 0 || w.k <= 0) usage(argv[0]);
  }

  simmpi::Cluster cl(P, simmpi::Machine::phoenix_mpi());
  cl.set_trace(true);
  const costmodel::DriftReport rep = costmodel::check_drift(algo, w, cl);

  std::printf("== %s  m=%lld n=%lld k=%lld  P=%d ==\n\n",
              costmodel::algo_name(algo), static_cast<long long>(w.m),
              static_cast<long long>(w.n), static_cast<long long>(w.k), P);
  std::printf("-- per-phase aggregate --\n%s\n",
              simmpi::format_aggregate_table(simmpi::aggregate_trace(cl))
                  .c_str());
  std::printf("-- critical path --\n%s\n",
              simmpi::format_critical_path(simmpi::critical_path(cl)).c_str());
  std::printf("-- prediction drift (rtol %.3g) --\n%s\n", rep.opts.rtol,
              rep.table().c_str());
  if (!json_path.empty()) {
    simmpi::write_chrome_trace_file(cl, json_path);
    std::printf("trace written to %s\n", json_path.c_str());
  }
  // The model replays the executed schedule, so every shape gates every
  // phase, the total and peak memory at the default tolerance.
  if (!rep.ok()) {
    std::fprintf(stderr, "DRIFT GATE FAILED\n");
    return 1;
  }
  return 0;
}
