// Persisted, versioned tuning database.
//
// The Tuner (tuner.hpp) searches configurations per (shape-class, topology)
// key and records the winner here, offline; PgemmEngine snapshots the DB at
// construction and consults the snapshot on plan-cache miss
// (engine/engine.hpp). The DB is the only component that outlives a
// process: it serializes deterministically to a small text file, so a DB
// warmed once (CI, a tools/tune run, a shipped artifact) keeps paying off
// across runs — a static table consulted at plan time, the NCCL-tuner model
// (SNIPPETS.md snippet 2).
//
// Keys quantize (m, n, k) into half-octave (sqrt-2-spaced) buckets and pin
// the rank count and machine topology (ranks per node, GPU offload): a
// tuned decision transfers to shapes of the same class on the same
// topology, but never across topologies. Element size is not part of the
// key; entries are tuned at esize 8 and the config transfers (grid and
// schedule choices scale with bytes, which scale linearly in esize).
//
// Versioning: the file header carries a schema version and the cost-model
// version (costmodel::kCostModelVersion). A file written by a different
// schema, a different cost model, or corrupted/truncated on disk is
// *ignored with a warning* — the engine then falls back to its heuristic
// and the tuner re-tunes from scratch. A tuning DB is a cache; it must
// never be able to break a run.
//
// Thread-safety: all methods are safe to call concurrently (one internal
// mutex), so readers may serialize or look up entries while a tuner writes.
// The engine never reads the DB after construction.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/topology.hpp"

namespace ca3dmm::tuner {

/// The configuration a tuning entry prescribes: everything the tuner
/// searches over. c (replication) and s follow from the grid.
struct TunedConfig {
  ProcGrid grid{};
  simmpi::CollectiveConfig coll = simmpi::CollectiveConfig::tuned();
  bool overlap = true;

  /// `opt` run under this config: the tuned grid, collective schedules and
  /// overlap replace the request's. The only place a tuned decision becomes
  /// options — the engine's plan miss, the service's quote and
  /// tuned_workload all call it, so all three run the same multiply.
  Ca3dmmOptions applied_to(Ca3dmmOptions opt) const {
    opt.force_grid = grid;
    opt.coll = coll;
    opt.overlap = overlap;
    return opt;
  }

  friend bool operator==(const TunedConfig&, const TunedConfig&) = default;
};

/// (shape-class, topology) key. Shapes are quantized per dimension into
/// half-octave buckets: bucket q covers [2^(q/2), 2^((q+1)/2)).
struct TuningKey {
  int qm = 0;  ///< shape_bucket(m)
  int qn = 0;  ///< shape_bucket(n)
  int qk = 0;  ///< shape_bucket(k)
  int nranks = 0;
  int ranks_per_node = 0;
  bool gpu = false;
  /// Topology::signature() of the multi-cluster layout; 0 for any topology
  /// indistinguishable from the legacy single-machine model, so v1-era keys
  /// and homogeneous runs keep colliding (sharing entries) as before.
  std::uint64_t topo = 0;

  auto tie() const {
    return std::tie(qm, qn, qk, nranks, ranks_per_node, gpu, topo);
  }
  friend bool operator<(const TuningKey& a, const TuningKey& b) {
    return a.tie() < b.tie();
  }
  friend bool operator==(const TuningKey& a, const TuningKey& b) {
    return a.tie() == b.tie();
  }
};

/// Half-octave bucket index of a dimension extent (d >= 1).
int shape_bucket(i64 d);

TuningKey make_key(i64 m, i64 n, i64 k, int nranks,
                   const simmpi::Machine& mach);
/// Topology-aware key: same shape buckets, anchor-machine node fields, plus
/// the topology signature so decisions never transfer across cluster
/// layouts (a grid tuned for 8 CPU + 8 GPU is wrong for 16 CPU).
TuningKey make_key(i64 m, i64 n, i64 k, int nranks,
                   const simmpi::Topology& topo);

/// One tuned decision plus the evidence behind it.
struct TuningEntry {
  TuningKey key{};
  /// The representative shape the search actually ran on (the first shape
  /// of the class the tuner saw).
  i64 rep_m = 0, rep_n = 0, rep_k = 0;
  TunedConfig config{};
  double predicted_s = 0;  ///< costmodel::predict of the winner
  /// Executed virtual time of the winner's traced validation run; 0 when
  /// the tuner ran in predict-only mode (TunerOptions::validate = false).
  double validated_s = 0;
  /// Executed (or, in predict-only mode, predicted) vtime of the auto
  /// heuristic baseline the winner was required to beat-or-match.
  double baseline_s = 0;
  i64 candidates_pruned = 0;     ///< rejected on predictions alone
  i64 candidates_validated = 0;  ///< finalists run for real

  friend bool operator==(const TuningEntry&, const TuningEntry&) = default;
};

class TuningDb {
 public:
  /// `path` is the backing file for load()/save() without arguments; empty
  /// = in-memory only. Construction does NOT load — call load() so the
  /// caller sees whether the file was usable.
  explicit TuningDb(std::string path = "") : path_(std::move(path)) {}

  // ---- lookups / mutation (thread-safe) ----
  std::optional<TuningEntry> find(const TuningKey& key) const;
  /// Inserts or replaces the entry for entry.key.
  void put(const TuningEntry& entry);
  std::vector<TuningEntry> entries() const;  ///< sorted by key
  size_t size() const;
  void clear();

  // ---- persistence ----
  /// Deterministic text serialization: versioned header + one line per
  /// entry, sorted by key. Byte-identical for equal contents.
  std::string serialize() const;
  /// Parses `blob`, replacing the current contents on success. On any
  /// mismatch (schema version, cost-model version, malformed or truncated
  /// input) leaves the DB unchanged, emits one warning on stderr when
  /// `warn` names the source, and returns false.
  bool deserialize(const std::string& blob, const char* warn = nullptr);
  bool load() { return load(path_); }
  bool load(const std::string& path);
  bool save() const { return save(path_); }
  bool save(const std::string& path) const;
  const std::string& path() const { return path_; }

  // Version 2: TuningKey carries the topology signature.
  // Version 4: entry lines drop the `work` and `stale` columns.
  static constexpr int kSchemaVersion = 4;

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::map<TuningKey, TuningEntry> entries_;
};

const char* coll_algo_token(simmpi::CollAlgo a);  ///< stable short name

}  // namespace ca3dmm::tuner
