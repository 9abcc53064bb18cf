// tune — warm or inspect the persisted PGEMM tuning database.
//
//   ./tune --db PATH [--warm] [--dump] [--p N]
//          [--shape M,N,K] ...
//          [--grid-candidates N] [--top-k N] [--no-validate]
//
//   --db PATH     tuning database file (created if missing)
//   --warm        tune every --shape at P ranks and persist the winners;
//                 shapes whose bucket already holds an entry are skipped
//                 (reload is O(1), no re-search)
//   --dump        print the database contents as a table
//   --p N         rank count to tune for (default 32)
//   --shape M,N,K problem shape; repeatable. Default: the four scaled
//                 problem classes of the small-scale benches
//   --grid-candidates / --top-k / --no-validate
//                 search-width knobs (see src/tuner/tuner.hpp)
//
// The same file is consumed by EngineConfig::tuning_db and the bench
// binaries' --tuning-db flag; docs/TUNING.md documents the format and the
// versioning rules.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tuner/db.hpp"
#include "tuner/tuner.hpp"

using namespace ca3dmm;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --db PATH [--warm] [--dump] [--p N]\n"
               "          [--shape M,N,K]...\n"
               "          [--grid-candidates N] [--top-k N] [--no-validate]\n",
               argv0);
  std::exit(2);
}

struct Shape {
  i64 m, n, k;
};

void dump(const tuner::TuningDb& db) {
  const auto entries = db.entries();
  std::printf("%s: schema %d, cost model %d, %zu entr%s\n",
              db.path().empty() ? "(unsaved)" : db.path().c_str(),
              tuner::TuningDb::kSchemaVersion, costmodel::kCostModelVersion,
              entries.size(), entries.size() == 1 ? "y" : "ies");
  if (entries.empty()) return;
  std::printf(
      "%-22s %5s %-12s %-22s %2s %12s %12s %12s %7s\n", "bucket(q m,n,k)",
      "P", "grid", "coll(ag,rs,bc,ar)", "ov", "predicted_s", "validated_s",
      "baseline_s", "speedup");
  for (const tuner::TuningEntry& e : entries) {
    const double speedup =
        e.validated_s > 0 ? e.baseline_s / e.validated_s : 0.0;
    std::printf(
        "%6d,%6d,%6d %7d %-12s %-22s %2s %12.6g %12.6g %12.6g %6.3fx\n",
        e.key.qm, e.key.qn, e.key.qk, e.key.nranks,
        strprintf("%dx%dx%d", e.config.grid.pm, e.config.grid.pn,
                  e.config.grid.pk)
            .c_str(),
        strprintf("%s,%s,%s,%s", tuner::coll_algo_token(e.config.coll.allgather),
                  tuner::coll_algo_token(e.config.coll.reduce_scatter),
                  tuner::coll_algo_token(e.config.coll.bcast),
                  tuner::coll_algo_token(e.config.coll.allreduce))
            .c_str(),
        e.config.overlap ? "y" : "n", e.predicted_s, e.validated_s,
        e.baseline_s, speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  bool warm = false, do_dump = false;
  int P = 32;
  std::vector<Shape> shapes;
  tuner::TunerOptions topt;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (std::strcmp(argv[i], name) == 0) {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      }
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
        return argv[i] + len + 1;
      return nullptr;
    };
    if (const char* v = value("--db")) {
      db_path = v;
    } else if (std::strcmp(argv[i], "--warm") == 0) {
      warm = true;
    } else if (std::strcmp(argv[i], "--dump") == 0) {
      do_dump = true;
    } else if (const char* v = value("--p")) {
      P = std::atoi(v);
    } else if (const char* v = value("--shape")) {
      long long m = 0, n = 0, k = 0;
      if (std::sscanf(v, "%lld,%lld,%lld", &m, &n, &k) != 3 || m <= 0 ||
          n <= 0 || k <= 0) {
        std::fprintf(stderr, "bad --shape '%s' (expected M,N,K)\n", v);
        return 2;
      }
      shapes.push_back({m, n, k});
    } else if (const char* v = value("--grid-candidates")) {
      topt.grid_candidates = std::atoi(v);
    } else if (const char* v = value("--top-k")) {
      topt.top_k = std::atoi(v);
    } else if (std::strcmp(argv[i], "--no-validate") == 0) {
      topt.validate = false;
    } else {
      usage(argv[0]);
    }
  }
  if (db_path.empty() || (!warm && !do_dump)) usage(argv[0]);
  if (P <= 0) usage(argv[0]);
  if (shapes.empty())
    shapes = {{192, 192, 192}, {48, 48, 3072}, {3072, 48, 48}, {384, 384, 24}};

  const simmpi::Machine mach = simmpi::Machine::phoenix_mpi();
  tuner::TuningDb db(db_path);
  db.load();  // missing file is a normal cold start

  if (warm) {
    tuner::Tuner tuner(mach, topt);
    int tuned = 0, skipped = 0;
    for (const Shape& s : shapes) {
      const tuner::TuningKey key = tuner::make_key(s.m, s.n, s.k, P, mach);
      if (db.find(key)) {
        ++skipped;
        continue;
      }
      const tuner::TuneResult r = tuner.tune_into(db, s.m, s.n, s.k, P);
      ++tuned;
      std::printf(
          "tuned %lldx%lldx%lld P=%d: %s grid %dx%dx%d ov=%d "
          "(%.6gs vs heuristic %.6gs; %lld pruned, %lld validated)\n",
          static_cast<long long>(s.m), static_cast<long long>(s.n),
          static_cast<long long>(s.k), P,
          r.winner_is_heuristic ? "heuristic" : "tuned",
          r.entry.config.grid.pm, r.entry.config.grid.pn,
          r.entry.config.grid.pk, r.entry.config.overlap ? 1 : 0,
          r.entry.validated_s > 0 ? r.entry.validated_s : r.entry.predicted_s,
          r.heuristic_s, static_cast<long long>(r.candidates_pruned),
          static_cast<long long>(r.candidates_validated));
    }
    if (!db.save()) {
      std::fprintf(stderr, "cannot write %s\n", db_path.c_str());
      return 1;
    }
    std::printf("warmed %s: %d tuned, %d already fresh\n", db_path.c_str(),
                tuned, skipped);
  }

  if (do_dump) dump(db);
  return 0;
}
