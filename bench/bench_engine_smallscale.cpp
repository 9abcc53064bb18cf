// End-to-end engine runs at reduced scale: the actual threaded message-
// passing engine executes CA3DMM, COSMA-like, and CTF-like multiplications
// (real data movement, real local GEMMs) on scaled-down versions of the four
// problem classes, and reports both simulated time and host wall time.
//
// This demonstrates that the orderings shown by the paper-scale cost-model
// benches also emerge from the executable implementation, and doubles as a
// performance check of the local GEMM kernel.
#include "bench_common.hpp"

#include <cstdio>

#include "costmodel/drift.hpp"
#include "core/ca3dmm.hpp"
#include "engine/engine.hpp"
#include "linalg/gemm.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm::bench {
namespace {

using costmodel::Algo;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

struct SmallClass {
  const char* name;
  i64 m, n, k;
};

std::vector<SmallClass> small_classes() {
  return {
      {"square", 192, 192, 192},
      {"large-K", 48, 48, 3072},
      {"large-M", 3072, 48, 48},
      {"flat", 384, 384, 24},
  };
}

/// Runs one algorithm on the engine with 1-D column layouts; returns max
/// simulated seconds.
double run_engine(Algo algo, const SmallClass& sc, int P,
                  const Machine& mach) {
  costmodel::Workload w(sc.m, sc.n, sc.k);
  w.custom_layout = true;
  Cluster cl(P, mach);
  return costmodel::run_workload(algo, w, cl).vtime;
}

/// One row of the iterative engine-vs-one-shot comparison (ISSUE acceptance
/// workload: `iters` same-shape multiplies per problem class).
struct EngineRow {
  const char* name;
  i64 m, n, k;
  double oneshot_s = 0;   ///< total simulated seconds, one-shot loop
  double engine_s = 0;    ///< total simulated seconds, engine loop
  double hit_rate = 0;    ///< plan-cache hit rate of the engine run
  i64 splits_saved = 0;   ///< rank-0 communicator splits avoided
  i64 peak_bytes = 0;     ///< max per-rank peak tracked bytes (engine run)
  i64 peak_bytes_oneshot = 0;
  double pool_hit_rate = 0;
};

/// Runs `iters` identical multiplies through the one-shot path and through
/// a persistent engine; fills the comparison row.
EngineRow run_iterative(const SmallClass& sc, int P, int iters,
                        const Machine& mach) {
  EngineRow row{sc.name, sc.m, sc.n, sc.k};
  const BlockLayout a_lay = BlockLayout::col_1d(sc.m, sc.k, P);
  const BlockLayout b_lay = BlockLayout::col_1d(sc.k, sc.n, P);
  const BlockLayout c_lay = BlockLayout::col_1d(sc.m, sc.n, P);

  {
    Cluster cl(P, mach);
    const Ca3dmmPlan plan = Ca3dmmPlan::make(sc.m, sc.n, sc.k, P);
    cl.run([&](Comm& world) {
      std::vector<double> a, b;
      fill_local(a_lay, world.rank(), 5, a);
      fill_local(b_lay, world.rank(), 6, b);
      std::vector<double> c(
          static_cast<size_t>(c_lay.local_size(world.rank())));
      for (int t = 0; t < iters; ++t)
        ca3dmm_multiply<double>(world, plan, false, false, a_lay, a.data(),
                                b_lay, b.data(), c_lay, c.data());
    });
    row.oneshot_s = cl.aggregate_stats().vtime;
    row.peak_bytes_oneshot = cl.aggregate_stats().peak_bytes;
  }
  {
    Cluster cl(P, mach);
    engine::EngineStats st;
    cl.run([&](Comm& world) {
      std::vector<double> a, b;
      fill_local(a_lay, world.rank(), 5, a);
      fill_local(b_lay, world.rank(), 6, b);
      std::vector<double> c(
          static_cast<size_t>(c_lay.local_size(world.rank())));
      engine::EngineConfig ecfg;
      // --tuning-db: serve tuned plans the way a warmed production engine
      // would. The DB is loaded once and shared across all rank bodies.
      static tuner::TuningDb* tuning_db = [] {
        if (bench_tuning_db_path().empty()) return (tuner::TuningDb*)nullptr;
        auto* db = new tuner::TuningDb(bench_tuning_db_path());
        db->load();
        return db;
      }();
      ecfg.tuning_db = tuning_db;
      engine::PgemmEngine eng(world, ecfg);
      engine::Request<double> req;
      req.m = sc.m;
      req.n = sc.n;
      req.k = sc.k;
      req.a_layout = &a_lay;
      req.a = a.data();
      req.b_layout = &b_lay;
      req.b = b.data();
      req.c_layout = &c_lay;
      req.c = c.data();
      std::vector<engine::Request<double>> batch(
          static_cast<size_t>(iters), req);
      eng.submit(batch);
      if (world.rank() == 0) st = eng.stats();
    });
    row.engine_s = cl.aggregate_stats().vtime;
    row.peak_bytes = cl.aggregate_stats().peak_bytes;
    row.hit_rate = st.plan_hit_rate();
    row.splits_saved = st.splits_saved;
    row.pool_hit_rate = st.pool.hit_rate();
  }
  return row;
}

/// Host work of warm engine requests, beyond the first (cold) request:
/// both are 0 when the engine runs the schedule cached in its plan entry
/// out of its block, whatever the layouts.
struct WarmCounts {
  i64 schedule_builds = 0;  ///< HostProfile::schedule_builds
  i64 pool_acquires = 0;    ///< engine-block acquisitions, summed over ranks
};

/// Native layouts, or (`custom`) 1-D column layouts whose conversions
/// stage through the block's tail.
WarmCounts warm_engine_counts(const SmallClass& sc, int P,
                              const Machine& mach, bool custom) {
  Cluster cl(P, mach);
  std::vector<i64> acquires(static_cast<size_t>(P));
  const auto run = [&](int requests) {
    cl.run([&](Comm& world) {
      const int me = world.rank();
      engine::PgemmEngine eng(world);
      const Ca3dmmPlan& plan = eng.plan_for(sc.m, sc.n, sc.k);
      const BlockLayout la = custom ? BlockLayout::col_1d(sc.m, sc.k, P)
                                    : plan.a_native();
      const BlockLayout lb = custom ? BlockLayout::col_1d(sc.k, sc.n, P)
                                    : plan.b_native();
      const BlockLayout lc = custom ? BlockLayout::col_1d(sc.m, sc.n, P)
                                    : plan.c_native();
      std::vector<double> a, b;
      fill_local(la, me, 5, a);
      fill_local(lb, me, 6, b);
      std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
      engine::Request<double> req;
      req.m = sc.m;
      req.n = sc.n;
      req.k = sc.k;
      req.a_layout = &la;
      req.a = a.data();
      req.b_layout = &lb;
      req.b = b.data();
      req.c_layout = &lc;
      req.c = c.data();
      eng.multiply(req);
      const simmpi::PoolStats cold = eng.stats().pool;
      for (int i = 1; i < requests; ++i) eng.multiply(req);
      const simmpi::PoolStats warm = eng.stats().pool;
      acquires[static_cast<size_t>(me)] =
          warm.hits + warm.misses - cold.hits - cold.misses;
    });
    return cl.host_profile().schedule_builds;
  };
  const i64 cold_builds = run(1);
  WarmCounts w;
  w.schedule_builds = run(4) - cold_builds;
  for (i64 n : acquires) w.pool_acquires += n;
  return w;
}

/// Emits the machine-readable summary consumed by CI and the paper harness.
void write_engine_json(const std::vector<EngineRow>& rows, int P, int iters,
                       const WarmCounts& warm, const WarmCounts& warm_custom,
                       const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_iterative\",\n");
  std::fprintf(f, "  \"gemm_isa\": \"%s\",\n", gemm_isa_name());
  std::fprintf(f, "  \"P\": %d,\n  \"iters\": %d,\n", P, iters);
  std::fprintf(f,
               "  \"warm_schedule_builds\": %lld,\n"
               "  \"warm_pool_acquires\": %lld,\n"
               "  \"warm_custom_schedule_builds\": %lld,\n"
               "  \"warm_custom_pool_acquires\": %lld,\n  \"classes\": [\n",
               static_cast<long long>(warm.schedule_builds),
               static_cast<long long>(warm.pool_acquires),
               static_cast<long long>(warm_custom.schedule_builds),
               static_cast<long long>(warm_custom.pool_acquires));
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& r = rows[i];
    std::fprintf(f,
                 "    {\"class\": \"%s\", \"m\": %lld, \"n\": %lld, "
                 "\"k\": %lld,\n"
                 "     \"oneshot_sim_s\": %.9f, \"engine_sim_s\": %.9f,\n"
                 "     \"plan_cache_hit_rate\": %.4f, "
                 "\"splits_saved_rank0\": %lld,\n"
                 "     \"peak_bytes\": %lld, \"peak_bytes_oneshot\": %lld,\n"
                 "     \"pool_hit_rate\": %.4f}%s\n",
                 r.name, (long long)r.m, (long long)r.n, (long long)r.k,
                 r.oneshot_s, r.engine_s, r.hit_rate,
                 (long long)r.splits_saved, (long long)r.peak_bytes,
                 (long long)r.peak_bytes_oneshot, r.pool_hit_rate,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_engine_iterative() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  const int P = 16, iters = 10;
  std::printf(
      "\n=== Persistent engine vs one-shot: %d same-shape multiplies, P=%d "
      "===\n",
      iters, P);
  TextTable t({"class", "one-shot ms", "engine ms", "saved", "plan hits",
               "peak MiB (engine/one-shot)"});
  std::vector<EngineRow> rows;
  for (const SmallClass& sc : small_classes()) {
    EngineRow r = run_iterative(sc, P, iters, mach);
    t.add_row({r.name, strprintf("%.3f", r.oneshot_s * 1e3),
               strprintf("%.3f", r.engine_s * 1e3),
               strprintf("%.1f%%", (1 - r.engine_s / r.oneshot_s) * 100),
               strprintf("%.0f%%", r.hit_rate * 100),
               strprintf("%.2f / %.2f", r.peak_bytes / 1048576.0,
                         r.peak_bytes_oneshot / 1048576.0)});
    rows.push_back(r);
  }
  t.print();
  std::printf(
      "(plan + communicator splits amortized over the batch; peak memory "
      "unchanged)\n");
  const WarmCounts warm =
      warm_engine_counts(small_classes()[0], P, mach, false);
  const WarmCounts warm_custom =
      warm_engine_counts(small_classes()[0], P, mach, true);
  std::printf(
      "warm requests: native layouts %lld schedule builds, %lld engine-block "
      "acquisitions; custom layouts %lld, %lld\n",
      static_cast<long long>(warm.schedule_builds),
      static_cast<long long>(warm.pool_acquires),
      static_cast<long long>(warm_custom.schedule_builds),
      static_cast<long long>(warm_custom.pool_acquires));
  write_engine_json(rows, P, iters, warm, warm_custom, "BENCH_engine.json");
}

void print_tables() {
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;  // 16 ranks span 4 simulated nodes
  mach.cores_per_node = 4;
  const int P = 16;
  std::printf(
      "\n=== Engine runs (threads, real data): scaled-down classes, P=%d "
      "===\n",
      P);
  TextTable t({"class", "m,n,k", "CA3DMM ms", "COSMA ms", "CTF ms",
               "CA3DMM fastest"});
  for (const SmallClass& sc : small_classes()) {
    const double ca = run_engine(Algo::kCa3dmm, sc, P, mach);
    const double co = run_engine(Algo::kCosma, sc, P, mach);
    const double ct = run_engine(Algo::kCtf, sc, P, mach);
    t.add_row({sc.name, strprintf("%lld,%lld,%lld", (long long)sc.m,
                                  (long long)sc.n, (long long)sc.k),
               strprintf("%.3f", ca * 1e3), strprintf("%.3f", co * 1e3),
               strprintf("%.3f", ct * 1e3),
               (ca <= co * 1.02 && ca <= ct) ? "yes" : "no"});
  }
  t.print();
  std::printf("\n(simulated milliseconds; CTF includes its remapping pass)\n");
  print_engine_iterative();
}

void register_benchmarks() {
  // Host wall-time benchmark of the local GEMM kernel (the one real-time
  // measurement in the suite), labelled with the clone gemm_blocked runs.
  benchmark::RegisterBenchmark("local_gemm/256", [](benchmark::State& st) {
    const i64 n = 256;
    std::vector<double> a(static_cast<size_t>(n * n), 1.5),
        b(static_cast<size_t>(n * n), 0.5), c(static_cast<size_t>(n * n));
    for (auto _ : st) {
      gemm_blocked<double>(false, false, n, n, n, 1.0, a.data(), b.data(),
                           c.data());
      benchmark::DoNotOptimize(c.data());
    }
    st.SetLabel(gemm_isa_name());  // which kernel clone the rate is of
    st.counters["GFLOP/s"] = benchmark::Counter(
        gemm_flops(n, n, n) * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  });
  // Simulated engine runs registered as manual-time benchmarks.
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  for (const SmallClass& sc : small_classes()) {
    benchmark::RegisterBenchmark(
        strprintf("engine/CA3DMM/%s/P=16", sc.name).c_str(),
        [sc, mach](benchmark::State& st) {
          for (auto _ : st) {
            st.SetIterationTime(run_engine(Algo::kCa3dmm, sc, 16, mach));
          }
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  ca3dmm::bench::register_benchmarks();
  return ca3dmm::bench::run_bench_main(argc, argv,
                                       ca3dmm::bench::print_tables);
}
