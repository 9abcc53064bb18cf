// Auto-tuner gate bench: warms a tuning database over the four scaled
// problem classes at P = 32 and checks the claims docs/TUNING.md makes.
//
// Gates (exit nonzero on any failure):
//   1. tuned <= auto on every key: the validated winner is never slower
//      than the engine's heuristic config (solver grid + tuned collectives),
//      and at least one class is strictly faster.
//   2. every winner passed the executed-vs-predicted drift gate (1e-6).
//   3. persistence: save -> reload -> find() hits every key with a
//      byte-identical entry and no re-search, and a PgemmEngine handed the
//      reloaded DB consults it (tuned_for returns the winner config).
//
// Also reports the search cost per class: candidates pruned by the cost
// model vs validated with traced simulator runs, and the fiber stacks the
// validation runs mapped (P: the finalists of a key share one Cluster).
// Emits BENCH_tuner.json.
#include "bench_common.hpp"

#include <cstdio>

#include "engine/engine.hpp"
#include "tuner/db.hpp"
#include "tuner/tuner.hpp"

namespace ca3dmm::bench {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

constexpr int kP = 32;

struct TunerRow {
  const char* name;
  i64 m, n, k;
  tuner::TuneResult result;
  bool winner_drift_ok = false;
};

/// The winner's drift verdict: locate it among the validated finalists.
bool winner_drift_ok(const tuner::TuneResult& r) {
  for (const tuner::CandidateReport& f : r.finalists)
    if (f.config == r.entry.config) return f.validated && f.drift_ok;
  return false;
}

void write_tuner_json(const std::vector<TunerRow>& rows, bool reload_ok,
                      bool engine_ok, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"tuner\",\n  \"P\": %d,\n", kP);
  std::fprintf(f, "  \"schema_version\": %d,\n  \"cost_model_version\": %d,\n",
               tuner::TuningDb::kSchemaVersion, costmodel::kCostModelVersion);
  std::fprintf(f, "  \"reload_hits_without_research\": %s,\n",
               reload_ok ? "true" : "false");
  std::fprintf(f, "  \"engine_consults_db\": %s,\n",
               engine_ok ? "true" : "false");
  std::fprintf(f, "  \"classes\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const TunerRow& r = rows[i];
    const tuner::TuningEntry& e = r.result.entry;
    std::fprintf(
        f,
        "    {\"class\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld,\n"
        "     \"auto_sim_s\": %.9f, \"tuned_sim_s\": %.9f,\n"
        "     \"speedup\": %.4f, \"winner_is_heuristic\": %s,\n"
        "     \"grid\": \"%dx%dx%d\", \"overlap\": %s,\n"
        "     \"candidates_total\": %lld, \"candidates_pruned\": %lld,\n"
        "     \"candidates_validated\": %lld, \"drift_ok\": %s,\n"
        "     \"validation_stacks_mapped\": %lld}%s\n",
        r.name, static_cast<long long>(r.m), static_cast<long long>(r.n),
        static_cast<long long>(r.k), r.result.heuristic_s, e.validated_s,
        e.validated_s > 0 ? r.result.heuristic_s / e.validated_s : 0.0,
        r.result.winner_is_heuristic ? "true" : "false", e.config.grid.pm,
        e.config.grid.pn, e.config.grid.pk,
        e.config.overlap ? "true" : "false",
        static_cast<long long>(r.result.candidates_total),
        static_cast<long long>(r.result.candidates_pruned),
        static_cast<long long>(r.result.candidates_validated),
        r.winner_drift_ok ? "true" : "false",
        static_cast<long long>(r.result.validation_profile.stacks_mapped),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int run_gates() {
  const Machine mach = Machine::phoenix_mpi();
  tuner::Tuner tuner(mach);
  tuner::TuningDb db("BENCH_tuner.db");

  std::vector<TunerRow> rows = {
      {"square", 192, 192, 192, {}, false},
      {"large-K", 48, 48, 3072, {}, false},
      {"large-M", 3072, 48, 48, {}, false},
      {"flat", 384, 384, 24, {}, false},
  };

  TextTable t({"class", "auto sim(s)", "tuned sim(s)", "speedup", "grid",
               "pruned", "validated", "drift"});
  bool all_le = true, drift_all_ok = true;
  int strict = 0;
  for (TunerRow& r : rows) {
    r.result = tuner.tune_into(db, r.m, r.n, r.k, kP);
    r.winner_drift_ok = winner_drift_ok(r.result);
    const tuner::TuningEntry& e = r.result.entry;
    if (e.validated_s > r.result.heuristic_s) all_le = false;
    if (e.validated_s < r.result.heuristic_s) ++strict;
    if (!r.winner_drift_ok) drift_all_ok = false;
    t.add_row({r.name, strprintf("%.6g", r.result.heuristic_s),
           strprintf("%.6g", e.validated_s),
           strprintf("%.3fx", r.result.heuristic_s / e.validated_s),
           grid_str(e.config.grid),
           strprintf("%lld", static_cast<long long>(r.result.candidates_pruned)),
           strprintf("%lld",
                     static_cast<long long>(r.result.candidates_validated)),
           r.winner_drift_ok ? "ok" : "FLAGGED"});
    register_sim_time(strprintf("tuner/%s/auto", r.name),
                      r.result.heuristic_s);
    register_sim_time(strprintf("tuner/%s/tuned", r.name), e.validated_s);
  }
  std::printf("== auto-tuner, four classes, P=%d ==\n%s\n", kP,
              t.str().c_str());

  // --- persistence: save -> reload -> O(1) hits, byte-identical entries ---
  bool reload_ok = db.save();
  tuner::TuningDb reloaded("BENCH_tuner.db");
  reload_ok = reload_ok && reloaded.load();
  reload_ok = reload_ok && reloaded.serialize() == db.serialize();
  for (const TunerRow& r : rows) {
    const auto hit =
        reloaded.find(tuner::make_key(r.m, r.n, r.k, kP, mach));
    if (!hit || !(*hit == r.result.entry)) reload_ok = false;
  }

  // --- the engine consults the reloaded DB on a plan-cache miss ---
  bool engine_ok = true;
  {
    Cluster cl(kP, mach);
    cl.run([&](Comm& world) {
      engine::EngineConfig ecfg;
      ecfg.tuning_db = &reloaded;
      engine::PgemmEngine eng(world, ecfg);
      for (const TunerRow& r : rows) {
        const auto cfg = eng.tuned_for(r.m, r.n, r.k);
        if (world.rank() == 0 && (!cfg || !(*cfg == r.result.entry.config)))
          engine_ok = false;
      }
    });
  }

  write_tuner_json(rows, reload_ok, engine_ok, "BENCH_tuner.json");

  int rc = 0;
  if (!all_le) {
    std::fprintf(stderr, "TUNER GATE FAILED: tuned slower than auto\n");
    rc = 1;
  }
  if (strict < 1) {
    std::fprintf(stderr,
                 "TUNER GATE FAILED: no class strictly faster than auto\n");
    rc = 1;
  }
  if (!drift_all_ok) {
    std::fprintf(stderr,
                 "TUNER GATE FAILED: a winner drifted beyond tolerance\n");
    rc = 1;
  }
  if (!reload_ok) {
    std::fprintf(stderr, "TUNER GATE FAILED: save/reload round trip\n");
    rc = 1;
  }
  if (!engine_ok) {
    std::fprintf(stderr,
                 "TUNER GATE FAILED: engine did not adopt the DB config\n");
    rc = 1;
  }
  if (rc == 0)
    std::printf("tuner gates OK: tuned <= auto on all %zu keys "
                "(%d strictly faster), drift within 1e-6, reload O(1)\n",
                rows.size(), strict);
  return rc;
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  const int rc = ca3dmm::bench::run_gates();
  ca3dmm::bench::run_bench_main(argc, argv, [] {});
  return rc;
}
