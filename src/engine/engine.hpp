// Persistent PGEMM engine: executes a stream of multiply requests on one
// long-lived communicator, amortizing per-call setup the way a serving
// system must.
//
// One-shot ca3dmm_multiply rebuilds everything per call: the plan (grid
// solving), the split communicators (k-task / Cannon / replication /
// reduction groups — four collective splits that each charge latency to
// every rank), the rank's schedule and its arena. Iterative workloads
// (density-matrix purification, CholeskyQR iteration — the paper's §V
// motivation) issue dozens of identically-shaped multiplications, so a
// PgemmEngine keeps:
//
//   * a plan cache   — LRU over (m, n, k, P, Ca3dmmOptions), with hit /
//                      miss / eviction counters. The element type is NOT
//                      part of the key: float and double requests of one
//                      shape share a plan (and its communicators).
//   * a comm cache   — each cached plan carries its PlanComms, split once
//                      on the miss and reused by every subsequent call, so
//                      repeated multiplies charge zero split latency.
//   * schedules      — and this rank's compiled schedules, one per
//                      (trans_a, trans_b, element size) run: allgatherv
//                      counts are in bytes, so float and double differ.
//   * one block      — all of them run out of the engine's one memory
//                      block (simmpi/pool.hpp), grown to the largest
//                      arena plus staging tail (one request runs at a
//                      time); the schedule tracks its slots, staging
//                      included, so peaks keep Table I semantics.
//   * a batch API    — submit() takes a vector of requests, groups
//                      same-plan requests together, and executes them
//                      back-to-back (one plan lookup per run, no cache
//                      thrash when shapes interleave).
// A warm request builds nothing and acquires no memory, whatever its
// layouts: a custom layout's staging lives in the block's tail.
//
// Usage contract: every member of `world` constructs an engine and calls
// multiply()/submit()/plan_for() collectively in the same order with the
// same shapes and options (normal MPI discipline). The engine is a per-rank
// object; cache state evolves identically on all ranks because the request
// stream does. Results are bit-identical to the one-shot path.
//
// Concurrency: the engine is a per-rank object, called from its rank's own
// code, one call at a time — as an MPI rank is one single-threaded process
// in every algorithm this repository reproduces. The collective entry
// points (multiply, submit, plan_for) raise ca3dmm::Error
// when called from anywhere else, such as an OS thread the rank spawned.
//
// Failure semantics: a rank killed mid-batch triggers the cluster's
// cooperative abort, every peer unwinds, and Cluster::run raises one
// aggregated ca3dmm::Error. An engine whose execute() sees a ca3dmm::Error
// on its own rank invalidates the plan-cache entry in use (its split
// communicators may be poisoned by the failure), releases every slot of
// its block on the way out (the block itself stays), and rethrows —
// leaving the engine safely reusable for the next submission. That reuse is exercised within a run for
// collectively raised validation errors; after a real rank loss the whole
// run is torn down and the shrink-and-replan layer (resilience/recovery.hpp)
// re-executes rank_main — with fresh engines — on the survivors. See
// docs/RESILIENCE.md.
#pragma once

#include <array>
#include <cstddef>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "core/ca3dmm.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/pool.hpp"
#include "tuner/db.hpp"

namespace ca3dmm::engine {

/// Tuning knobs of one engine instance. Must match on every rank.
struct EngineConfig {
  /// Plans (with their communicators) kept alive; least recently used
  /// entries are evicted beyond this.
  size_t plan_cache_capacity = 8;
  /// Tuning database written offline (tools/tune, Tuner::tune_into;
  /// tuner/db.hpp); null = no tuning, the engine always plans with the
  /// request's own options. The engine snapshots the DB at construction and
  /// consults only the snapshot on plan-cache miss; it never reads the DB
  /// again, so the caller need not keep it alive. Every rank's engine must
  /// see identical contents at construction (same file, no writer racing
  /// construction).
  const tuner::TuningDb* tuning_db = nullptr;
};

/// Monotonic per-engine counters. Cache counters evolve identically on
/// every rank (the request stream is collective); splits_saved and the
/// block snapshot are this rank's own view (idle ranks skip the per-plan group
/// splits, so they save fewer).
struct EngineStats {
  i64 requests = 0;         ///< multiplies executed
  i64 batches = 0;          ///< submit() calls
  i64 plan_hits = 0;        ///< requests served by a cached plan
  i64 plan_misses = 0;      ///< requests that built a plan + comms
  i64 plan_evictions = 0;   ///< cache entries dropped (LRU)
  /// Cache entries dropped because a multiply using them raised an error
  /// (failed ranks may leave a cached communicator half-rendezvoused, so
  /// the whole entry is poisoned; the next submission re-plans and
  /// re-splits). Evolves identically on every surviving rank.
  i64 plan_invalidations = 0;
  /// Communicator splits avoided versus the one-shot path (each cache hit
  /// skips the active/cannon/replication/reduction splits of its plan).
  i64 splits_saved = 0;
  /// Plan-cache misses whose plan was built from a tuning-DB entry instead
  /// of the request's own options. Evolves identically on every rank.
  i64 tuned_plans = 0;
  simmpi::PoolStats pool;   ///< memory-block snapshot (filled by stats())

  double plan_hit_rate() const {
    const i64 total = plan_hits + plan_misses;
    return total == 0 ? 0.0 : static_cast<double>(plan_hits) / total;
  }
};

/// One multiplication request: C = op(A) x op(B), same argument contract as
/// ca3dmm_multiply (layouts span the engine's communicator; local pointers
/// may be null only when the layout assigns this rank zero elements).
template <typename T>
struct Request {
  i64 m = 0, n = 0, k = 0;
  bool trans_a = false, trans_b = false;
  const BlockLayout* a_layout = nullptr;
  const T* a = nullptr;
  const BlockLayout* b_layout = nullptr;
  const T* b = nullptr;
  const BlockLayout* c_layout = nullptr;
  T* c = nullptr;
  Ca3dmmOptions opt{};
};

class PgemmEngine {
 public:
  /// Binds the engine to `world` (the handle is dup()ed — cheap and local).
  /// Collective only in the sense that every rank must construct one.
  explicit PgemmEngine(simmpi::Comm& world, EngineConfig cfg = {});

  PgemmEngine(const PgemmEngine&) = delete;
  PgemmEngine& operator=(const PgemmEngine&) = delete;

  /// Executes one request through the caches. Collective over world.
  template <typename T>
  void multiply(const Request<T>& req);

  /// Executes a batch: requests are grouped by plan key (first-appearance
  /// order preserved) and each group runs back-to-back on one cached plan.
  /// Requests in a batch must be independent — the engine may reorder them
  /// across groups, so no request's input may alias another's output.
  /// Collective over world; every rank passes the same batch shape-wise.
  template <typename T>
  void submit(const std::vector<Request<T>>& batch);

  /// Plans (or returns the cached plan) for a shape without executing —
  /// pre-warming the caches, with the double, untransposed schedule.
  /// Collective over world on a cache miss (the communicators are split
  /// here). The reference stays valid until the entry is evicted.
  const Ca3dmmPlan& plan_for(i64 m, i64 n, i64 k,
                             const Ca3dmmOptions& opt = {});

  /// True when the shape's plan (and split communicators) are already
  /// cached, i.e. the next request of this shape takes the warm path.
  /// Purely local — never plans, never communicates — so a serving layer
  /// may consult it for pricing without collective discipline.
  bool is_cached(i64 m, i64 n, i64 k, const Ca3dmmOptions& opt = {}) const;

  /// Counters, with a current memory-block snapshot merged in.
  EngineStats stats() const;

  size_t cached_plans() const;

  /// Drops every cached plan (with its communicators and schedules) and
  /// frees the memory block. Purely local: no communication, no virtual-time charge.
  void clear();

  /// The tuned config the engine would apply to a plan-cache miss of this
  /// request, from the construction-time snapshot: set iff the request is
  /// tunable (no force_grid, no coll, not SUMMA) and an entry covers its
  /// key. Purely local — safe for pricing, like is_cached().
  std::optional<tuner::TunedConfig> tuned_for(
      i64 m, i64 n, i64 k, const Ca3dmmOptions& opt = {}) const;

 private:
  struct PlanKey {
    i64 m = 0, n = 0, k = 0;
    int nranks = 0;
    Ca3dmmOptions opt{};
    friend bool operator==(const PlanKey&, const PlanKey&) = default;
  };
  struct Entry {
    PlanKey key;
    Ca3dmmPlan plan;
    PlanComms comms;
    /// By [trans_a * 4 + trans_b * 2 + (element size == 8)].
    std::array<std::optional<Schedule>, 8> schedules;
    i64 splits_per_call = 0;  ///< one-shot splits this rank avoids per hit

    /// Compiled on first use; local.
    const Schedule& schedule(const simmpi::Comm& world, bool trans_a,
                             bool trans_b, i64 esize);
  };

  /// The cached entry for the key, or lru_.end().
  std::list<Entry>::const_iterator find(const PlanKey& key) const;

  /// Returns the cache entry for the key, building plan, comms and the
  /// (trans_a, trans_b, esize) schedule on a miss (collective!) and
  /// updating LRU order and counters.
  Entry& lookup(const PlanKey& key, bool trans_a = false,
                bool trans_b = false, i64 esize = sizeof(double));

  template <typename T>
  void execute(Entry& entry, const Request<T>& req);

  template <typename T>
  PlanKey key_of(const Request<T>& req) const;

  /// Snapshot entry covering a tunable request, else null.
  const tuner::TuningEntry* tuned_entry(i64 m, i64 n, i64 k,
                                        const Ca3dmmOptions& opt) const;

  /// Raises ca3dmm::Error unless called from the rank that built the engine.
  void check_owner() const;

  simmpi::Comm world_;
  EngineConfig cfg_;
  /// Rank context of the rank that constructed the engine (check_owner).
  simmpi::RankCtx* owner_ctx_;
  /// Front = most recently used; at most plan_cache_capacity entries, so
  /// lookups scan it.
  std::list<Entry> lru_;
  simmpi::BufferPool pool_;  ///< every request's arena and staging tail
  EngineStats stats_;
  /// Snapshot of the tuning DB taken at construction (see
  /// EngineConfig::tuning_db).
  std::map<tuner::TuningKey, tuner::TuningEntry> tuned_view_;
};

}  // namespace ca3dmm::engine
