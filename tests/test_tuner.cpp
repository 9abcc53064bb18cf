// Auto-tuner and tuning DB: deterministic serialization round trips,
// version/corruption fallback, the search's never-slower-than-heuristic
// guarantee, engine consultation of a DB snapshot, tune-on-miss and
// stale-key feedback loops, concurrent readers vs a tuner writer, and the
// CostOracle invalidation the service layer relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/admission.hpp"
#include "engine/engine.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "tuner/db.hpp"
#include "tuner/tuner.hpp"

namespace ca3dmm {
namespace {

using engine::EngineConfig;
using engine::PgemmEngine;
using engine::Request;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using tuner::TunedConfig;
using tuner::Tuner;
using tuner::TunerOptions;
using tuner::TuningDb;
using tuner::TuningEntry;
using tuner::TuningKey;

void fill_local(const BlockLayout& layout, int rank, std::uint64_t seed,
                std::vector<double>& buf) {
  buf.assign(static_cast<size_t>(layout.local_size(rank)), 0.0);
  i64 pos = 0;
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j)
        buf[static_cast<size_t>(pos++)] = matrix_entry<double>(seed, i, j);
}

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
  e.validated_work_s = 1.0e-4;
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
  f.stale = true;
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
    EXPECT_TRUE(tuner::bucket_matches(q, d)) << "d=" << d;
    EXPECT_FALSE(tuner::bucket_matches(q + 1, d)) << "d=" << d;
    EXPECT_FALSE(tuner::bucket_matches(q - 1, d)) << "d=" << d;
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
        "ca3dmm-tuning-db schema 2 costmodel 3\n"
        "entries 1\n"
        "13 13 13 8 24 0 topo 0 rep 96 96 96 grid 2 2 2 coll auto auto auto "
        "auto 16384 ov 1 pred 2.6463600000000005e-05 valid "
        "2.6463600000000005e-05 base 2.6463600000000005e-05 pruned 176 "
        "validated 5 stale 0\n",
        f);
    std::fclose(f);
  }
  TuningDb db(path);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(db.load());
  testing::internal::GetCapturedStderr();
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
  // Garbage body under a valid-looking start.
  EXPECT_FALSE(victim.deserialize("ca3dmm-tuning-db schema 1 costmodel 1\n"
                                  "entries 1\nnot an entry line\n"));
  EXPECT_EQ(victim.serialize(), before);
  EXPECT_FALSE(victim.deserialize("complete nonsense"));
  EXPECT_EQ(victim.serialize(), before);
}

// ---------------------------------------------------------------------------
// DB semantics: staleness, pending queue, listeners
// ---------------------------------------------------------------------------

TEST(TuningDbSemantics, ObserveExecutedMarksStaleOnDrift) {
  TuningDb db;
  fill_sample(db);
  const TuningKey key = tuner::make_key(96, 96, 96, 8, Machine::unit_test());
  const double validated = db.find(key)->validated_s;

  // Inside tolerance: stays fresh.
  EXPECT_FALSE(db.observe_executed(key, validated * (1 + 1e-9), 1e-6));
  EXPECT_FALSE(db.find(key)->stale);
  // Outside tolerance: goes stale exactly once.
  EXPECT_TRUE(db.observe_executed(key, validated * 1.5, 1e-6));
  EXPECT_TRUE(db.find(key)->stale);
  EXPECT_FALSE(db.observe_executed(key, validated * 1.5, 1e-6));
}

TEST(TuningDbSemantics, PendingQueueDeduplicatesByKey) {
  TuningDb db;
  const Machine mach = Machine::unit_test();
  db.request_tune(96, 96, 96, 8, mach);
  db.request_tune(95, 95, 95, 8, mach);  // same half-octave bucket
  db.request_tune(48, 48, 768, 8, mach);
  EXPECT_EQ(db.pending(), 2u);
  EXPECT_EQ(db.take_pending().size(), 2u);
  EXPECT_EQ(db.pending(), 0u);
}

TEST(TuningDbSemantics, ListenersFireOnChange) {
  TuningDb db;
  std::vector<TuningKey> seen;
  const int id = db.add_listener(
      [&](const TuningEntry& e) { seen.push_back(e.key); });

  TuningEntry e;
  e.key = tuner::make_key(96, 96, 96, 8, Machine::unit_test());
  db.put(e);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_TRUE(db.mark_stale(e.key));
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_FALSE(db.mark_stale(e.key)) << "already stale: no change, no event";
  EXPECT_EQ(seen.size(), 2u);

  db.remove_listener(id);
  db.put(e);
  EXPECT_EQ(seen.size(), 2u);
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

TEST(TunerSearch, DrainProcessesPendingAndSkipsFreshKeys) {
  TunerOptions opt;
  opt.validate = false;
  const Machine mach = Machine::unit_test();
  Tuner tuner(mach, opt);
  TuningDb db;
  db.request_tune(96, 96, 96, 8, mach);
  db.request_tune(48, 48, 768, 8, mach);
  EXPECT_EQ(tuner.drain(db), 2);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.pending(), 0u);

  // Re-requesting a key that is already fresh is a no-op for drain.
  db.request_tune(96, 96, 96, 8, mach);
  EXPECT_EQ(tuner.drain(db), 0);

  // A stale key re-tunes.
  ASSERT_TRUE(db.mark_stale(tuner::make_key(96, 96, 96, 8, mach)));
  db.request_tune(96, 96, 96, 8, mach);
  EXPECT_EQ(tuner.drain(db), 1);
  EXPECT_FALSE(db.find(tuner::make_key(96, 96, 96, 8, mach))->stale);
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

TEST(EngineTuning, TuneOnMissEnqueuesAndRefreshAdoptsDrainedResult) {
  const Machine mach = Machine::unit_test();
  const int P = 8;
  TuningDb db;
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.tuning_db = &db;
    cfg.tune_on_miss = true;
    PgemmEngine eng(world, cfg);
    eng.plan_for(96, 96, 96);  // miss: heuristic plan + pending tune request
    EXPECT_FALSE(eng.tuned_for(96, 96, 96).has_value());
    world.barrier();
    if (world.rank() == 0) {
      EXPECT_EQ(db.pending(), 1u);
    }
    world.barrier();

    // A host-side tuner would drain concurrently; here rank 0 stands in
    // (the engines only read their snapshots until refresh_tuning).
    if (world.rank() == 0) {
      TunerOptions topt;
      topt.validate = false;
      EXPECT_EQ(Tuner(mach, topt).drain(db), 1);
    }
    world.barrier();

    const auto changed = eng.refresh_tuning();
    EXPECT_EQ(changed.size(), 1u);
    EXPECT_TRUE(eng.tuned_for(96, 96, 96).has_value());
  });
}

TEST(EngineTuning, InjectedDriftMarksKeyStaleOnEveryRank) {
  const Machine mach = Machine::unit_test();
  const int P = 4;
  const i64 m = 48, n = 48, k = 48;
  // Warm a real validated entry first (no faults).
  TuningDb db;
  Tuner tuner(mach);
  tuner.tune_into(db, m, n, k, P);
  const TuningKey key = tuner::make_key(m, n, k, P, mach);
  ASSERT_TRUE(db.find(key).has_value());
  ASSERT_FALSE(db.find(key)->stale);

  const BlockLayout lay_a = BlockLayout::col_1d(m, k, P);
  const BlockLayout lay_b = BlockLayout::col_1d(k, n, P);
  const BlockLayout lay_c = BlockLayout::col_1d(m, n, P);

  // Replay the tuned multiply on a cluster where node 0 straggles 3x: the
  // executed vtime leaves the validated envelope, so every rank must mark
  // the key stale, drop the cached plan, and enqueue a re-tune.
  Cluster cl(P, mach);
  simmpi::FaultPlan faults;
  faults.stragglers.push_back({.node = 0, .factor = 3.0});
  cl.set_fault_plan(faults);
  engine::EngineStats st;
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.tuning_db = &db;
    cfg.tune_on_miss = true;
    cfg.tuned_stale_rtol = 0.05;
    PgemmEngine eng(world, cfg);
    std::vector<double> a, b;
    fill_local(lay_a, world.rank(), 31, a);
    fill_local(lay_b, world.rank(), 32, b);
    std::vector<double> c(
        static_cast<size_t>(lay_c.local_size(world.rank())));
    Request<double> req;
    req.m = m;
    req.n = n;
    req.k = k;
    req.a_layout = &lay_a;
    req.a = a.data();
    req.b_layout = &lay_b;
    req.b = b.data();
    req.c_layout = &lay_c;
    req.c = c.data();
    eng.multiply(req);
    // The tuned snapshot entry is disabled on every rank.
    EXPECT_FALSE(eng.tuned_for(m, n, k).has_value());
    if (world.rank() == 0) st = eng.stats();
  });
  EXPECT_EQ(st.tuned_plans, 1);
  EXPECT_GE(st.plan_invalidations, 1);
  EXPECT_TRUE(db.find(key)->stale);
  EXPECT_GE(db.pending(), 1u);

  // The feedback loop closes: drain re-tunes the stale key fresh.
  EXPECT_GE(tuner.drain(db), 1);
  EXPECT_FALSE(db.find(key)->stale);
}

TEST(EngineTuning, HealthyTunedRunStaysFresh) {
  const Machine mach = Machine::unit_test();
  const int P = 4;
  const i64 m = 48, n = 48, k = 48;
  TuningDb db;
  Tuner(mach).tune_into(db, m, n, k, P);
  const TuningKey key = tuner::make_key(m, n, k, P, mach);

  const BlockLayout lay_a = BlockLayout::col_1d(m, k, P);
  const BlockLayout lay_b = BlockLayout::col_1d(k, n, P);
  const BlockLayout lay_c = BlockLayout::col_1d(m, n, P);
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.tuning_db = &db;
    // Generous threshold: the engine path differs from the tuner's traced
    // validation run only by constant plan/communicator setup.
    cfg.tuned_stale_rtol = 0.5;
    PgemmEngine eng(world, cfg);
    std::vector<double> a, b;
    fill_local(lay_a, world.rank(), 31, a);
    fill_local(lay_b, world.rank(), 32, b);
    std::vector<double> c(
        static_cast<size_t>(lay_c.local_size(world.rank())));
    Request<double> req;
    req.m = m;
    req.n = n;
    req.k = k;
    req.a_layout = &lay_a;
    req.a = a.data();
    req.b_layout = &lay_b;
    req.b = b.data();
    req.c_layout = &lay_c;
    req.c = c.data();
    eng.multiply(req);
    EXPECT_TRUE(eng.tuned_for(m, n, k).has_value());
  });
  EXPECT_FALSE(db.find(key)->stale);
}

TEST(EngineTuning, ConcurrentRefreshReadersVsTunerWriter) {
  // TSan target: engines refresh their snapshots (rank 0 serializes the DB,
  // broadcasts, all ranks parse) while a host thread keeps writing fresh
  // entries through the Tuner. The engines must always see an internally
  // consistent snapshot; the DB mutex plus the collective broadcast make
  // every rank's view identical at each refresh.
  const Machine mach = Machine::unit_test();
  const int P = 4;
  TuningDb db;
  std::thread writer([&] {
    TunerOptions topt;
    topt.validate = false;
    Tuner tuner(mach, topt);
    for (int round = 0; round < 20; ++round)
      for (const i64 d : {i64{24}, i64{48}, i64{96}, i64{192}})
        tuner.tune_into(db, d, d, d, P);
  });
  Cluster cl(P, mach);
  cl.run([&](Comm& world) {
    EngineConfig cfg;
    cfg.tuning_db = &db;
    PgemmEngine eng(world, cfg);
    size_t last = 0;
    for (int i = 0; i < 50; ++i) {
      eng.refresh_tuning();
      size_t view = 0;
      for (const i64 d : {i64{24}, i64{48}, i64{96}, i64{192}})
        view += eng.tuned_for(d, d, d).has_value() ? 1u : 0u;
      // Snapshots only ever grow here (no staleness in play).
      EXPECT_GE(view, last);
      last = view;
    }
  });
  writer.join();
  EXPECT_EQ(db.size(), 4u);
}

// ---------------------------------------------------------------------------
// CostOracle invalidation (the service's side of the feedback loop)
// ---------------------------------------------------------------------------

TEST(OracleInvalidation, ShapeAndPredicateGranularity) {
  costmodel::CostOracle oracle(8, Machine::unit_test());
  costmodel::Workload w{96, 96, 96};
  oracle.quote(costmodel::Algo::kCa3dmm, w);
  costmodel::Workload w2{48, 48, 768};
  oracle.quote(costmodel::Algo::kCa3dmm, w2);
  EXPECT_EQ(oracle.evaluations(), 2);

  // Exact-shape invalidation touches only that shape.
  EXPECT_EQ(oracle.invalidate_shape(96, 96, 96), 1);
  EXPECT_EQ(oracle.invalidate_shape(96, 96, 96), 0);
  oracle.quote(costmodel::Algo::kCa3dmm, w);
  EXPECT_EQ(oracle.evaluations(), 3) << "invalidated quote re-prices";
  oracle.quote(costmodel::Algo::kCa3dmm, w2);
  EXPECT_EQ(oracle.evaluations(), 3) << "untouched quote stays memoized";

  // Key-granular predicate: every shape in the changed key's bucket goes.
  const TuningKey key = tuner::make_key(96, 96, 96, 8, Machine::unit_test());
  costmodel::Workload w3{95, 95, 95};  // same bucket as 96^3
  oracle.quote(costmodel::Algo::kCa3dmm, w3);
  const i64 erased = oracle.invalidate_if([&](i64 m, i64 n, i64 k) {
    return tuner::make_key(m, n, k, 8, Machine::unit_test()) == key;
  });
  EXPECT_EQ(erased, 2);

  // A tuned config is a distinct memoization key: the same shape priced
  // under different grids/schedules yields separate entries (the service
  // re-prices after refresh_tuning instead of reusing the heuristic quote).
  costmodel::Workload tuned = w;
  tuned.force_grid = find_grid_candidates(96, 96, 96, 8, 2).back();
  tuned.overlap = false;
  oracle.quote(costmodel::Algo::kCa3dmm, w);
  const i64 before_tuned = oracle.evaluations();
  oracle.quote(costmodel::Algo::kCa3dmm, tuned);
  EXPECT_EQ(oracle.evaluations(), before_tuned + 1)
      << "a tuned config must not reuse the heuristic quote";
  oracle.quote(costmodel::Algo::kCa3dmm, tuned);
  EXPECT_EQ(oracle.evaluations(), before_tuned + 1);
}

}  // namespace
}  // namespace ca3dmm
