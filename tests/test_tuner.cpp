// Auto-tuner and tuning DB: deterministic serialization round trips,
// version/corruption fallback, concurrent readers vs a tuner writer, the
// search's never-slower-than-heuristic guarantee, and engine consultation
// of its construction-time DB snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/drift.hpp"
#include "engine/engine.hpp"
#include "simmpi/cluster.hpp"
#include "tuner/db.hpp"
#include "tuner/tuner.hpp"

namespace ca3dmm {
namespace {

using engine::EngineConfig;
using engine::PgemmEngine;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using tuner::Tuner;
using tuner::TunerOptions;
using tuner::TuningDb;
using tuner::TuningEntry;

/// Fills `db` with two hand-built deterministic entries.
void fill_sample(TuningDb& db) {
  TuningEntry e;
  e.key = tuner::make_key(96, 96, 96, 8, Machine::unit_test());
  e.rep_m = e.rep_n = e.rep_k = 96;
  e.config.grid = find_grid(96, 96, 96, 8);
  e.config.coll.allgather = simmpi::CollAlgo::kRecursive;
  e.config.overlap = false;
  e.predicted_s = 1.25e-4;
  e.validated_s = 1.25e-4;
  e.baseline_s = 1.5e-4;
  e.candidates_pruned = 40;
  e.candidates_validated = 5;
  db.put(e);
  TuningEntry f;
  f.key = tuner::make_key(48, 48, 768, 8, Machine::unit_test());
  f.rep_m = f.rep_n = 48;
  f.rep_k = 768;
  f.config.grid = find_grid(48, 48, 768, 8);
  f.predicted_s = 3.5e-4;
  db.put(f);
}

// ---------------------------------------------------------------------------
// Shape buckets
// ---------------------------------------------------------------------------

TEST(ShapeBucket, ConsistentAndMonotone) {
  int prev = tuner::shape_bucket(1);
  for (i64 d = 1; d <= 5000; ++d) {
    const int q = tuner::shape_bucket(d);
    EXPECT_GE(q, prev) << "bucket index must be monotone in d, d=" << d;
    // Bucket q covers [2^(q/2), 2^((q+1)/2)), i.e. 2^q <= d^2 < 2^(q+1).
    const double d2 = static_cast<double>(d) * static_cast<double>(d);
    EXPECT_LE(std::ldexp(1.0, q), d2) << "d=" << d;
    EXPECT_LT(d2, std::ldexp(1.0, q + 1)) << "d=" << d;
    prev = q;
  }
  // Half-octave spacing: doubling a dimension moves exactly two buckets.
  for (i64 d : {i64{1}, i64{3}, i64{48}, i64{192}, i64{1000}})
    EXPECT_EQ(tuner::shape_bucket(2 * d), tuner::shape_bucket(d) + 2);
}

TEST(ShapeBucket, KeysGroupNearbyShapesAndPinTopology) {
  const Machine mpi = Machine::phoenix_mpi();
  // 190 and 192 are the same class; 192 and 400 are not.
  EXPECT_EQ(tuner::make_key(190, 190, 190, 32, mpi),
            tuner::make_key(192, 192, 192, 32, mpi));
  EXPECT_NE(tuner::make_key(192, 192, 192, 32, mpi),
            tuner::make_key(400, 192, 192, 32, mpi));
  // Same shape, different rank count or topology: different key.
  EXPECT_NE(tuner::make_key(192, 192, 192, 32, mpi),
            tuner::make_key(192, 192, 192, 64, mpi));
  EXPECT_NE(tuner::make_key(192, 192, 192, 32, mpi),
            tuner::make_key(192, 192, 192, 32, Machine::phoenix_hybrid()));
  EXPECT_NE(tuner::make_key(192, 192, 192, 32, mpi),
            tuner::make_key(192, 192, 192, 32, Machine::phoenix_gpu()));
}

// ---------------------------------------------------------------------------
// Serialization / versioning / corruption
// ---------------------------------------------------------------------------

TEST(TuningDbPersistence, RoundTripIsByteIdentical) {
  TuningDb db;
  fill_sample(db);
  const std::string blob = db.serialize();

  TuningDb copy;
  ASSERT_TRUE(copy.deserialize(blob));
  EXPECT_EQ(copy.serialize(), blob);
  EXPECT_EQ(copy.entries(), db.entries());

  // serialize() is a pure function of contents: repeated calls and an extra
  // round trip stay byte-identical (the on-disk format is diff-stable).
  TuningDb copy2;
  ASSERT_TRUE(copy2.deserialize(copy.serialize()));
  EXPECT_EQ(copy2.serialize(), blob);
}

TEST(TuningDbPersistence, SaveLoadRoundTrip) {
  const std::string path = "test_tuner_roundtrip.db";
  TuningDb db;
  fill_sample(db);
  ASSERT_TRUE(db.save(path));

  TuningDb loaded(path);
  ASSERT_TRUE(loaded.load());
  EXPECT_EQ(loaded.serialize(), db.serialize());
  EXPECT_EQ(loaded.size(), db.size());
  std::remove(path.c_str());
}

TEST(TuningDbPersistence, MissingFileIsACleanColdStart) {
  TuningDb db("definitely_missing_tuning.db");
  EXPECT_FALSE(db.load());
  EXPECT_EQ(db.size(), 0u);
}

TEST(TuningDbPersistence, SchemaVersionMismatchIsIgnored) {
  TuningDb db;
  fill_sample(db);
  std::string blob = db.serialize();
  const std::string tag = "schema " + std::to_string(TuningDb::kSchemaVersion);
  const size_t at = blob.find(tag);
  ASSERT_NE(at, std::string::npos);
  blob.replace(at, tag.size(), "schema 999");

  TuningDb victim;
  fill_sample(victim);
  const std::string before = victim.serialize();
  EXPECT_FALSE(victim.deserialize(blob, "schema-mismatch test"));
  EXPECT_EQ(victim.serialize(), before) << "a rejected blob must not mutate";

  // A file as schema 3 wrote it, under today's cost model: its lines still
  // carry the `work` and `stale` columns, and it is rejected on the schema.
  const std::string v3 =
      "ca3dmm-tuning-db schema 3 costmodel " +
      std::to_string(costmodel::kCostModelVersion) +
      "\nentries 1\n"
      "13 13 13 8 24 0 topo 0 rep 96 96 96 grid 2 2 2 coll auto auto auto "
      "auto 16384 ov 1 pred 2.6e-05 valid 2.6e-05 work 2.5e-05 base 2.6e-05 "
      "pruned 176 validated 5 stale 0\n";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(victim.deserialize(v3, "schema-3 test"));
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("schema version 3"), std::string::npos) << warning;
  EXPECT_EQ(victim.serialize(), before);
}

TEST(TuningDbPersistence, CostModelVersionMismatchIsIgnored) {
  TuningDb db;
  fill_sample(db);
  std::string blob = db.serialize();
  const std::string tag =
      "costmodel " + std::to_string(costmodel::kCostModelVersion);
  const size_t at = blob.find(tag);
  ASSERT_NE(at, std::string::npos);
  blob.replace(at, tag.size(), "costmodel 999");

  TuningDb victim;
  EXPECT_FALSE(victim.deserialize(blob, "cost-model-mismatch test"));
  EXPECT_EQ(victim.size(), 0u);

  // Files tuned under every earlier model version (v2 priced uneven shapes
  // without collective synchronization) are ignored with a warning and
  // leave a populated DB untouched.
  for (int old = 1; old < costmodel::kCostModelVersion; ++old) {
    std::string stale = db.serialize();
    stale.replace(stale.find(tag), tag.size(),
                  "costmodel " + std::to_string(old));
    TuningDb kept;
    fill_sample(kept);
    const std::string before = kept.serialize();
    testing::internal::CaptureStderr();
    EXPECT_FALSE(kept.deserialize(stale, "old-model test"));
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("cost-model version " + std::to_string(old)),
              std::string::npos)
        << warning;
    EXPECT_EQ(kept.serialize(), before);
  }
}

TEST(TuningDbPersistence, CostModelV3FileIsRejected) {
  // A file as cost-model version 3 wrote it. Version 4 stopped pricing
  // identity conversions as world alltoallvs, so its vtimes are not
  // comparable: loading it warns and leaves the DB empty.
  const std::string path = "test_tuner_v3.db";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "ca3dmm-tuning-db schema 4 costmodel 3\n"
        "entries 1\n"
        "13 13 13 8 24 0 topo 0 rep 96 96 96 grid 2 2 2 coll auto auto auto "
        "auto 16384 ov 1 pred 2.6463600000000005e-05 valid "
        "2.6463600000000005e-05 base 2.6463600000000005e-05 pruned 176 "
        "validated 5\n",
        f);
    std::fclose(f);
  }
  TuningDb db(path);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(db.load());
  const std::string file_warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(file_warning.find("cost-model version 3"), std::string::npos)
      << file_warning;
  EXPECT_EQ(db.size(), 0u);

  // The same header under today's schema fails on the model version.
  TuningDb sample;
  fill_sample(sample);
  std::string blob = sample.serialize();
  const std::string tag =
      "costmodel " + std::to_string(costmodel::kCostModelVersion);
  blob.replace(blob.find(tag), tag.size(), "costmodel 3");
  TuningDb v3;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(v3.deserialize(blob, "v3 test"));
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("cost-model version 3"), std::string::npos)
      << warning;
  EXPECT_EQ(v3.size(), 0u);
  std::remove(path.c_str());
}

TEST(TuningDbPersistence, TruncatedAndCorruptBlobsAreIgnored) {
  TuningDb db;
  fill_sample(db);
  const std::string blob = db.serialize();

  TuningDb victim;
  fill_sample(victim);
  const std::string before = victim.serialize();
  // Truncations at every prefix length must be rejected without mutation.
  for (size_t len : {size_t{0}, size_t{5}, blob.size() / 2, blob.size() - 3}) {
    EXPECT_FALSE(victim.deserialize(blob.substr(0, len)));
    EXPECT_EQ(victim.serialize(), before) << "truncated at " << len;
  }
  // Garbage body under a valid header.
  const std::string header =
      "ca3dmm-tuning-db schema " + std::to_string(TuningDb::kSchemaVersion) +
      " costmodel " + std::to_string(costmodel::kCostModelVersion) + "\n";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(victim.deserialize(header + "entries 1\nnot an entry line\n",
                                  "garbage test"));
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("malformed entry 0"), std::string::npos) << warning;
  EXPECT_EQ(victim.serialize(), before);
  EXPECT_FALSE(victim.deserialize("complete nonsense"));
  EXPECT_EQ(victim.serialize(), before);
}

// ---------------------------------------------------------------------------
// Concurrency: readers vs a tuner writer
// ---------------------------------------------------------------------------

TEST(TuningDbConcurrency, ReadersVsTunerWriter) {
  // TSan target: host threads look up, list and serialize the DB while
  // another thread writes winners through the Tuner. Every read sees a
  // consistent state (the DB's mutex), and the final DB is the four keys.
  const Machine mach = Machine::unit_test();
  const int P = 4;
  const i64 dims[] = {24, 48, 96, 192};
  TuningDb db;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    TunerOptions topt;
    topt.validate = false;
    Tuner tuner(mach, topt);
    for (int round = 0; round < 20; ++round)
      for (const i64 d : dims) tuner.tune_into(db, d, d, d, P);
    done = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&] {
      size_t last = 0;
      while (!done) {
        size_t found = 0;
        for (const i64 d : dims)
          found += db.find(tuner::make_key(d, d, d, P, mach)) ? 1u : 0u;
        const std::vector<TuningEntry> es = db.entries();
        // Entries are only ever added or replaced here, so a later listing
        // holds everything found before it.
        EXPECT_GE(es.size(), found);
        EXPECT_GE(es.size(), last);
        last = es.size();
        TuningDb copy;
        EXPECT_TRUE(copy.deserialize(db.serialize()));
      }
    });
  writer.join();
  for (std::thread& r : readers) r.join();

  ASSERT_EQ(db.size(), 4u);
  const std::string blob = db.serialize();
  TuningDb copy;
  ASSERT_TRUE(copy.deserialize(blob));
  EXPECT_EQ(copy.serialize(), blob);
}

// ---------------------------------------------------------------------------
// Grid candidates and the overlap knob (the tuner's search axes)
// ---------------------------------------------------------------------------

TEST(GridCandidates, FirstIsSolverChoiceAllDistinctAndFeasible) {
  for (const auto& [m, n, k] : std::vector<std::array<i64, 3>>{
           {192, 192, 192}, {48, 48, 3072}, {384, 384, 24}}) {
    const auto cands = find_grid_candidates(m, n, k, 32, 6);
    ASSERT_FALSE(cands.empty());
    EXPECT_LE(cands.size(), 6u);
    const ProcGrid solver = find_grid(m, n, k, 32);
    EXPECT_EQ(cands[0].pm, solver.pm);
    EXPECT_EQ(cands[0].pn, solver.pn);
    EXPECT_EQ(cands[0].pk, solver.pk);
    for (size_t i = 0; i < cands.size(); ++i) {
      EXPECT_LE(cands[i].active(), 32);
      // Cannon compatibility: s divides the larger of pm, pn.
      const int s = cands[i].s(), big = std::max(cands[i].pm, cands[i].pn);
      EXPECT_EQ(big % s, 0) << "candidate " << i;
      for (size_t j = i + 1; j < cands.size(); ++j)
        EXPECT_FALSE(cands[i].pm == cands[j].pm &&
                     cands[i].pn == cands[j].pn && cands[i].pk == cands[j].pk)
            << "duplicate candidate";
    }
  }
}

TEST(OverlapKnob, DisablingOverlapNeverPredictsFasterAndExecutesClean) {
  costmodel::Workload w{192, 192, 192};
  const Machine mach = Machine::unit_test();
  w.overlap = true;
  const auto on = costmodel::predict(costmodel::Algo::kCa3dmm, w, 16, mach);
  w.overlap = false;
  const auto off = costmodel::predict(costmodel::Algo::kCa3dmm, w, 16, mach);
  EXPECT_GE(off.t_total, on.t_total);

  // The executed engine honors the flag and still matches the model.
  Cluster cl(16, mach);
  cl.set_trace(true);
  const auto rep = costmodel::check_drift(costmodel::Algo::kCa3dmm, w, cl);
  EXPECT_TRUE(rep.ok()) << rep.table();
}

// ---------------------------------------------------------------------------
// The tuner search itself
// ---------------------------------------------------------------------------

TEST(TunerSearch, WinnerNeverSlowerThanHeuristicAndDriftGated) {
  Tuner tuner(Machine::unit_test());
  const tuner::TuneResult r = tuner.tune(96, 96, 96, 8);

  ASSERT_GT(r.candidates_total, 0);
  EXPECT_EQ(r.candidates_pruned + static_cast<i64>(r.finalists.size()) - 1,
            r.candidates_total);
  EXPECT_GT(r.candidates_validated, 0);
  EXPECT_LE(r.entry.validated_s, r.heuristic_s);
  EXPECT_GT(r.entry.validated_s, 0);
  EXPECT_EQ(r.entry.baseline_s, r.heuristic_s);
  // The winner must itself have survived the drift gate.
  bool found = false;
  for (const auto& f : r.finalists)
    if (f.config == r.entry.config) {
      EXPECT_TRUE(f.validated && f.drift_ok);
      found = true;
    }
  EXPECT_TRUE(found);

  // Determinism: the search is a pure function of its inputs.
  const tuner::TuneResult r2 = tuner.tune(96, 96, 96, 8);
  EXPECT_TRUE(r2.entry == r.entry);
}

TEST(TunerSearch, PredictOnlyModeSkipsValidation) {
  TunerOptions opt;
  opt.validate = false;
  Tuner tuner(Machine::unit_test(), opt);
  const tuner::TuneResult r = tuner.tune(96, 96, 96, 8);
  EXPECT_EQ(r.entry.validated_s, 0);
  EXPECT_GT(r.entry.predicted_s, 0);
  EXPECT_LE(r.entry.predicted_s, r.heuristic_s);
}

TEST(Tuner, WarmValidationMatchesFreshClusters) {
  // The search prices each (grid, overlap) program once and validates every
  // finalist of a key on one Cluster with one set of operands. Each
  // finalist must read exactly as predict() plus check_drift() on a fresh
  // Cluster read it: the four perfbench classes and an uneven shape.
  const int P = 32;
  const Machine mach = Machine::phoenix_mpi();
  const Tuner tuner(mach);
  const i64 shapes[][3] = {{192, 192, 192}, {48, 48, 3072}, {3072, 48, 48},
                           {384, 384, 24},  {100, 70, 130}};
  for (const auto& [m, n, k] : shapes) {
    SCOPED_TRACE(strprintf("%lldx%lldx%lld", static_cast<long long>(m),
                           static_cast<long long>(n),
                           static_cast<long long>(k)));
    const tuner::TuneResult r = tuner.tune(m, n, k, P);
    EXPECT_EQ(r.validation_profile.stacks_mapped, P);  // one Cluster
    ASSERT_EQ(r.finalists.size(),
              static_cast<size_t>(tuner.options().top_k + 1));
    for (const tuner::CandidateReport& f : r.finalists) {
      const costmodel::Workload w =
          tuner::tuned_workload(m, n, k, f.config, tuner.options().min_kblk);
      Cluster cl(P, mach);
      cl.set_trace(true);
      const costmodel::DriftReport rep = costmodel::check_drift(
          costmodel::Algo::kCa3dmm, w, cl,
          costmodel::DriftOptions{tuner.options().drift_rtol, 1e-12});
      EXPECT_EQ(f.predicted_s,
                costmodel::predict(costmodel::Algo::kCa3dmm, w, P, mach)
                    .t_total);
      EXPECT_TRUE(f.validated);
      EXPECT_EQ(f.validated_s, rep.total.executed_s);
      EXPECT_EQ(f.drift_ok, rep.ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(EngineTuning, ConsultsDbOnMissAndRespectsUserOverrides) {
  const Machine mach = Machine::unit_test();
  const int P = 8;
  // Hand the engine a DB whose entry prescribes a deliberately non-default
  // grid so adoption is observable.
  TuningDb db;
  const auto cands = find_grid_candidates(96, 96, 96, P, 2);
  ASSERT_GE(cands.size(), 2u);
  TuningEntry e;
  e.key = tuner::make_key(96, 96, 96, P, mach);
  e.rep_m = e.rep_n = e.rep_k = 96;
  e.config.grid = cands[1];
  e.config.overlap = false;
  e.validated_s = 1e-4;
  db.put(e);

  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.tuning_db = &db;
    PgemmEngine eng(world, cfg);

    // tuned_for sees the snapshot; the planned grid is the tuned one.
    const auto tuned = eng.tuned_for(96, 96, 96);
    ASSERT_TRUE(tuned.has_value());
    EXPECT_TRUE(*tuned == e.config);
    const Ca3dmmPlan& plan = eng.plan_for(96, 96, 96);
    EXPECT_EQ(plan.grid().pm, cands[1].pm);
    EXPECT_EQ(plan.grid().pn, cands[1].pn);
    EXPECT_EQ(plan.grid().pk, cands[1].pk);
    EXPECT_EQ(eng.stats().tuned_plans, 1);

    // An explicit user force_grid wins over the DB...
    Ca3dmmOptions forced;
    forced.force_grid = cands[0];
    EXPECT_FALSE(eng.tuned_for(96, 96, 96, forced).has_value());
    const Ca3dmmPlan& fplan = eng.plan_for(96, 96, 96, forced);
    EXPECT_EQ(fplan.grid().pm, cands[0].pm);
    // ...as does an explicit collective schedule.
    Ca3dmmOptions mycoll;
    mycoll.coll = simmpi::CollectiveConfig{};
    EXPECT_FALSE(eng.tuned_for(96, 96, 96, mycoll).has_value());
    EXPECT_EQ(eng.stats().tuned_plans, 1);

    // A shape with no entry falls back to the heuristic silently.
    EXPECT_FALSE(eng.tuned_for(64, 64, 64).has_value());
    const Ca3dmmPlan& hplan = eng.plan_for(64, 64, 64);
    const ProcGrid solver = find_grid(64, 64, 64, P);
    EXPECT_EQ(hplan.grid().pm, solver.pm);
    EXPECT_EQ(eng.stats().tuned_plans, 1);
  });
}

TEST(EngineTuning, SnapshotIsTakenAtConstruction) {
  // The engine reads the DB once, when it is built: a later write reaches
  // only engines constructed after it.
  const Machine mach = Machine::unit_test();
  const int P = 4;
  TunerOptions topt;
  topt.validate = false;
  TuningDb db;
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.tuning_db = &db;
    PgemmEngine before(world, cfg);
    world.barrier();
    if (world.rank() == 0) Tuner(mach, topt).tune_into(db, 48, 48, 48, P);
    world.barrier();
    EXPECT_FALSE(before.tuned_for(48, 48, 48).has_value());
    PgemmEngine after(world, cfg);
    EXPECT_TRUE(after.tuned_for(48, 48, 48).has_value());
  });
}

TEST(EngineTuning, NoDbAndEmptyDbFallBackToHeuristic) {
  const Machine mach = Machine::unit_test();
  const int P = 4;
  TuningDb empty;
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    PgemmEngine plain(world);
    EXPECT_FALSE(plain.tuned_for(24, 24, 24).has_value());
    EngineConfig cfg;
    cfg.tuning_db = &empty;
    PgemmEngine eng(world, cfg);
    EXPECT_FALSE(eng.tuned_for(24, 24, 24).has_value());
    const Ca3dmmPlan& plan = eng.plan_for(24, 24, 24);
    const ProcGrid solver = find_grid(24, 24, 24, P);
    EXPECT_EQ(plan.grid().pm, solver.pm);
    EXPECT_EQ(eng.stats().tuned_plans, 0);
  });
}

}  // namespace
}  // namespace ca3dmm
