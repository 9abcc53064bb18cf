// Per-rank buffer pool: where a rank's work memory comes from.
//
// Every rank of a Cluster allocates from one: the Cluster owns a pool per
// rank and installs it around the rank's body, so a Cluster that runs many
// times (a benchmark loop, a service) serves each run from memory earlier
// runs released and already faulted in. The persistent PGEMM engine
// (src/engine) scopes a pool of its own over the rank's for its calls, with
// its own idle cap and footprint budget. Two things are acquired: a
// schedule's arena (PoolBlock; core/schedule.hpp packs every work buffer of
// a run into it — one acquisition per one-shot run, one per rank held
// across an engine's requests) and redistribution staging (TrackedBuffer).
// A released allocation waits on an exact-size free list and is handed back
// on the next request of the same size: repeated shapes reuse 100%, with no
// round-up slack.
//
// Pool memory is raw and untracked: the rank's tracker sees a TrackedBuffer
// while it lives and an arena slot between its alloc and free ops (Table I
// semantics); the pool's own gauges report live, idle and high-water bytes,
// what a serving budget bounds. Builds without NDEBUG fill every
// acquisition with 0xFF bytes (NaN for float and double), so memory read
// before it is written corrupts the result visibly.
//
// A pool is owned by one rank and is not thread-safe. Activate it with
// PoolScope; acquisitions pick up the scope's pool through a thread-local
// (which the fiber scheduler saves and restores per fiber), so the whole
// call tree is pool-backed without signature changes.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "common/partition.hpp"

namespace ca3dmm::simmpi {

/// Reuse statistics of one pool. The counters are monotonic over the pool's
/// lifetime; the gauges track the pool's current and historical footprint —
/// what a serving layer consults to enforce memory budgets (live + idle must
/// stay under budget, high_water_bytes proves it never did not).
struct PoolStats {
  i64 hits = 0;            ///< acquires served from a free list
  i64 misses = 0;          ///< acquires that hit the heap
  i64 trims = 0;           ///< allocations freed to respect max_idle_bytes

  // --- gauges ---
  i64 live_bytes = 0;       ///< bytes currently checked out of the pool
  i64 idle_bytes = 0;       ///< bytes currently parked on free lists
  /// Maximum of live_bytes + idle_bytes ever reached (the pool's total
  /// memory footprint high-water mark).
  i64 high_water_bytes = 0;

  double hit_rate() const {
    const i64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class BufferPool {
 public:
  /// `max_idle_bytes` caps the memory parked on free lists; give_back frees
  /// (instead of pooling) once the cap would be exceeded, largest idle
  /// allocations first.
  explicit BufferPool(i64 max_idle_bytes = 256ll << 20)
      : max_idle_bytes_(max_idle_bytes) {}
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an allocation of exactly `bytes` bytes (aligned for any scalar
  /// type; see the file comment for its contents). The caller must return
  /// it via give_back with the same size.
  void* acquire(i64 bytes);
  void give_back(void* p, i64 bytes);

  /// Frees idle allocations (largest first) until at most
  /// `target_idle_bytes` remain parked. trim() with no argument frees every
  /// idle allocation. This is the reclamation hook a serving layer calls
  /// under memory pressure: live (checked-out) allocations are untouched, so
  /// trimming is always safe mid-stream. Returns the bytes freed.
  i64 trim(i64 target_idle_bytes = 0);

  /// Hard cap on the pool's total footprint (live + idle bytes); 0 = off.
  /// Enforced at the only point the footprint can grow — a fresh heap
  /// allocation on an acquire miss — by evicting idle allocations (largest
  /// first) until the new allocation fits. Live allocations are never
  /// denied, so with a budget set, high_water_bytes <= max(budget, peak
  /// live bytes): a serving layer that admits only requests whose predicted
  /// peak fits the budget gets a provable zero-OOM bound.
  void set_footprint_budget(i64 bytes) { footprint_budget_bytes_ = bytes; }

  i64 idle_bytes() const { return stats_.idle_bytes; }
  i64 live_bytes() const { return stats_.live_bytes; }
  const PoolStats& stats() const { return stats_; }

 private:
  /// Folds the current footprint into the high-water gauge.
  void note_footprint();
  /// Frees idle allocations, largest first, while more than `target` idle
  /// bytes are parked.
  void evict_to(i64 target);

  std::map<i64, std::vector<void*>> free_;  ///< size in bytes -> free list
  i64 max_idle_bytes_;
  i64 footprint_budget_bytes_ = 0;
  PoolStats stats_;
};

/// The pool new TrackedBuffers and arenas of the calling thread draw from
/// (null when no PoolScope is active).
BufferPool* current_buffer_pool();

namespace detail {
/// Installs `next` as the calling thread's active pool and returns the
/// previous one. The fiber scheduler saves/restores each fiber's pool view
/// around context switches so PoolScope keeps working when fibers share
/// (and migrate between) worker threads.
BufferPool* swap_tls_pool(BufferPool* next);
}  // namespace detail

/// RAII activation of a pool for the calling rank; nests (the
/// previous pool is restored on destruction).
class PoolScope {
 public:
  explicit PoolScope(BufferPool* pool);
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  BufferPool* saved_;
};

/// One untracked block of `pool`, given back on destruction: a schedule's
/// arena. Growing gives the old block back and trims the pool first, so a
/// footprint holds one arena, not every size it ever had.
class PoolBlock {
 public:
  explicit PoolBlock(BufferPool* pool) : pool_(pool) { CA_ASSERT(pool); }
  ~PoolBlock() { reserve(0); }
  PoolBlock(const PoolBlock&) = delete;
  PoolBlock& operator=(const PoolBlock&) = delete;

  /// At least `bytes` bytes, the block's own if they fit; 0 gives it back.
  std::byte* reserve(i64 bytes);

 private:
  BufferPool* pool_;
  std::byte* data_ = nullptr;
  i64 bytes_ = 0;
};

}  // namespace ca3dmm::simmpi
