// Shared helpers for the benchmark binaries.
//
// Every bench binary reproduces one table or figure of the paper's
// evaluation (§IV). Timings come from the validated cost model (see
// tests/test_costmodel.cpp) evaluated at the paper's scale on the
// PACE-Phoenix-like machine model; each binary also registers its
// measurements with google-benchmark (manual time = simulated seconds) so
// the standard tooling can consume them, and prints a paper-style table for
// eyeballing against the publication.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "costmodel/model.hpp"
#include "layout/block_layout.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/topology.hpp"

namespace ca3dmm::bench {

/// The four problem classes of §IV-A (dimensions in elements).
struct ProblemClass {
  const char* name;
  i64 m, n, k;
};

inline std::vector<ProblemClass> paper_classes() {
  return {
      {"square  (50k,50k,50k)", 50000, 50000, 50000},
      {"large-K (6k,6k,1.2M)", 6000, 6000, 1200000},
      {"large-M (1.2M,6k,6k)", 1200000, 6000, 6000},
      {"flat    (100k,100k,5k)", 100000, 100000, 5000},
  };
}

/// Table III's GPU problem set.
inline std::vector<ProblemClass> gpu_classes() {
  return {
      {"square  (50k,50k,50k)", 50000, 50000, 50000},
      {"large-K (10k,10k,300k)", 10000, 10000, 300000},
      {"large-M (300k,10k,10k)", 300000, 10000, 10000},
      {"flat    (50k,50k,10k)", 50000, 50000, 10000},
  };
}

inline std::vector<int> paper_process_counts() {
  return {192, 384, 768, 1536, 3072};
}

inline std::string grid_str(const ProcGrid& g) {
  return strprintf("%d x %d x %d", g.pm, g.pn, g.pk);
}

/// Registers a pre-computed simulated time with google-benchmark so the
/// binary reports it through the standard reporter.
inline void register_sim_time(const std::string& name, double seconds) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [seconds](benchmark::State& st) {
                                 for (auto _ : st) {
                                   st.SetIterationTime(seconds);
                                 }
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

/// Fault plan assembled from --fault command-line flags. Empty unless the
/// user passed --fault specs; benches that execute on a threaded Cluster
/// attach it via cluster.set_fault_plan(bench_fault_plan()) so any bench run
/// can be replayed under a deterministic fault scenario.
inline simmpi::FaultPlan& bench_fault_plan() {
  static simmpi::FaultPlan plan;
  return plan;
}

/// Parses and strips repeated `--fault <spec>` (or `--fault=<spec>`)
/// arguments before google-benchmark sees argv. Specs:
///
///   rank_kill=R@OP       kill world rank R at its OP-th communication op
///   straggle=NODE@F      scale all local time on node NODE by factor F
///   flip=SRC,DST,TAG[,NTH[,OFF[,MASK]]]
///                        XOR MASK (default 0x01) into byte OFF (default 0)
///                        of the NTH (default 1st) message received on the
///                        p2p channel SRC -> DST with tag TAG
///
/// Unknown specs abort with a usage message — a silently ignored fault flag
/// would make a "survived faults" bench result meaningless.
inline void parse_fault_flags(int* argc, char** argv) {
  simmpi::FaultPlan& plan = bench_fault_plan();
  const auto parse_spec = [&plan](const char* spec) {
    int a = 0, b = 0, c = 0, nth = 1;
    long long op = 0, off = 0;
    unsigned mask = 0x01;
    double factor = 0;
    if (std::sscanf(spec, "rank_kill=%d@%lld", &a, &op) == 2) {
      plan.kills.push_back({.rank = a, .at_op = op});
      return;
    }
    if (std::sscanf(spec, "straggle=%d@%lf", &a, &factor) == 2) {
      plan.stragglers.push_back({.node = a, .factor = factor});
      return;
    }
    const int n =
        std::sscanf(spec, "flip=%d,%d,%d,%d,%lld,%x", &a, &b, &c, &nth, &off,
                    &mask);
    if (n >= 3) {
      plan.flips.push_back({.src = a,
                            .dst = b,
                            .tag = c,
                            .nth_match = nth,
                            .offset = off,
                            .mask = static_cast<unsigned char>(mask)});
      return;
    }
    std::fprintf(stderr,
                 "unrecognized --fault spec '%s'\n"
                 "expected rank_kill=R@OP | straggle=NODE@FACTOR | "
                 "flip=SRC,DST,TAG[,NTH[,OFF[,MASK]]]\n",
                 spec);
    std::exit(2);
  };

  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < *argc) {
      parse_spec(argv[++i]);
    } else if (std::strncmp(argv[i], "--fault=", 8) == 0) {
      parse_spec(argv[i] + 8);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Multi-tenant service knobs shared by bench_service and the service
/// smoke tooling. Zero / empty means "use the scenario's default".
struct ServiceFlags {
  int tenants = 0;              ///< --tenants N
  std::vector<double> weights;  ///< --weights a,b,c,... (cycled over tenants)
  i64 quota_mb = 0;             ///< --quota-mb N, per-tenant memory quota
};

inline ServiceFlags& bench_service_flags() {
  static ServiceFlags flags;
  return flags;
}

/// Parses and strips `--tenants N`, `--weights a,b,...` and `--quota-mb N`
/// (space- or =-separated) before google-benchmark sees argv.
inline void parse_service_flags(int* argc, char** argv) {
  ServiceFlags& flags = bench_service_flags();
  const auto parse_weights = [&flags](const char* s) {
    flags.weights.clear();
    while (*s != '\0') {
      char* end = nullptr;
      const double w = std::strtod(s, &end);
      if (end == s || w <= 0) {
        std::fprintf(stderr, "bad --weights list (positive numbers, "
                             "comma-separated)\n");
        std::exit(2);
      }
      flags.weights.push_back(w);
      s = *end == ',' ? end + 1 : end;
    }
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const auto value = [&](const char* name, const char* eq) -> const char* {
      if (std::strcmp(argv[i], name) == 0 && i + 1 < *argc)
        return argv[++i];
      if (std::strncmp(argv[i], eq, std::strlen(eq)) == 0)
        return argv[i] + std::strlen(eq);
      return nullptr;
    };
    if (const char* v = value("--tenants", "--tenants=")) {
      flags.tenants = std::atoi(v);
    } else if (const char* v = value("--weights", "--weights=")) {
      parse_weights(v);
    } else if (const char* v = value("--quota-mb", "--quota-mb=")) {
      flags.quota_mb = std::atoll(v);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Topology selected by `--topology <spec>`; nullopt = the bench's default
/// (usually homogeneous). Benches that execute on a Cluster construct it
/// from this when set, so any bench can be replayed on a heterogeneous
/// multi-cluster machine model.
inline std::optional<simmpi::Topology>& bench_topology() {
  static std::optional<simmpi::Topology> topo;
  return topo;
}

/// Parses a topology spec into a Topology. Grammar:
///
///   spec     :=  cluster(+cluster)*[@alpha,bandwidth]
///   cluster  :=  preset:nranks
///   preset   :=  mpi | hybrid | gpu | unit      (Machine presets)
///
/// e.g. `mpi:192+gpu:16@5e-6,5e9` — 192 phoenix_mpi ranks and 16
/// phoenix_gpu ranks joined by a 5 us / 5 GB/s inter-cluster link. Aborts
/// with a usage message on malformed specs (a silently ignored topology
/// flag would make a "heterogeneous" bench result meaningless).
inline simmpi::Topology parse_topology_spec(const char* spec) {
  const auto die = [spec]() {
    std::fprintf(stderr,
                 "unrecognized --topology '%s'\n"
                 "expected PRESET:NRANKS[+PRESET:NRANKS...][@ALPHA,BANDWIDTH] "
                 "with preset mpi|hybrid|gpu|unit\n",
                 spec);
    std::exit(2);
  };
  std::vector<simmpi::ClusterSpec> clusters;
  simmpi::InterClusterLink link;
  std::string s(spec);
  const size_t at = s.find('@');
  if (at != std::string::npos) {
    if (std::sscanf(s.c_str() + at + 1, "%lf,%lf", &link.alpha,
                    &link.bandwidth) != 2 ||
        link.alpha < 0 || link.bandwidth <= 0)
      die();
    s.resize(at);
  }
  size_t pos = 0;
  while (pos < s.size()) {
    size_t end = s.find('+', pos);
    if (end == std::string::npos) end = s.size();
    const std::string part = s.substr(pos, end - pos);
    const size_t colon = part.find(':');
    if (colon == std::string::npos) die();
    const std::string preset = part.substr(0, colon);
    const int nranks = std::atoi(part.c_str() + colon + 1);
    if (nranks <= 0) die();
    simmpi::Machine mach;
    if (preset == "mpi") mach = simmpi::Machine::phoenix_mpi();
    else if (preset == "hybrid") mach = simmpi::Machine::phoenix_hybrid();
    else if (preset == "gpu") mach = simmpi::Machine::phoenix_gpu();
    else if (preset == "unit") mach = simmpi::Machine::unit_test();
    else die();
    clusters.push_back(simmpi::ClusterSpec{preset, mach, nranks});
    pos = end + 1;
  }
  if (clusters.empty()) die();
  return simmpi::Topology::make(std::move(clusters), link);
}

/// Parses and strips `--topology SPEC` (space- or =-separated) before
/// google-benchmark sees argv.
inline void parse_topology_flags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < *argc) {
      bench_topology() = parse_topology_spec(argv[++i]);
    } else if (std::strncmp(argv[i], "--topology=", 11) == 0) {
      bench_topology() = parse_topology_spec(argv[i] + 11);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Path of the tuning DB selected by `--tuning-db <path>`; empty = no DB.
/// Benches that construct a PgemmEngine load it and pass it through
/// EngineConfig::tuning_db so bench runs exercise tuned plans the same way
/// production would.
inline std::string& bench_tuning_db_path() {
  static std::string path;
  return path;
}

/// Parses and strips `--tuning-db PATH` (space- or =-separated) before
/// google-benchmark sees argv.
inline void parse_tuning_db_flags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--tuning-db") == 0 && i + 1 < *argc) {
      bench_tuning_db_path() = argv[++i];
    } else if (std::strncmp(argv[i], "--tuning-db=", 12) == 0) {
      bench_tuning_db_path() = argv[i] + 12;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Standard main body: run the registered benchmarks, then the paper table.
inline int run_bench_main(int argc, char** argv,
                          const std::function<void()>& print_tables) {
  parse_fault_flags(&argc, argv);
  parse_service_flags(&argc, argv);
  parse_tuning_db_flags(&argc, argv);
  parse_topology_flags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}

}  // namespace ca3dmm::bench
