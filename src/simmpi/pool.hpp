// Per-rank buffer pool backing TrackedBuffer allocations.
//
// Every rank of a Cluster allocates from one: the Cluster owns a pool per
// rank and installs it around the rank's body, so a Cluster that runs many
// times (a benchmark loop, a service) serves each run's work buffers from
// memory earlier runs released and already faulted in. The persistent
// PGEMM engine (src/engine) scopes a pool of its own over the rank's for
// its calls, with its own idle cap and footprint budget. Either way a
// released allocation waits on an exact-size free list and is handed back
// on the next request of the same size, so a steady stream of same-shape
// requests performs zero heap allocations after the first.
//
// Accounting contract (Table I semantics): pooled memory is reported to the
// rank's memory tracker only while it is checked out. A TrackedBuffer served
// from the pool tracks exactly the same byte count at exactly the same
// program points as a heap-backed one, so peak-memory numbers are identical
// with and without a pool. Memory is zeroed on request only: a GEMM
// accumulator asks for it, a buffer its user overwrites in full does not.
// Builds without NDEBUG fill every unzeroed allocation with 0xFF bytes (NaN
// for float and double), so a buffer read before it is written corrupts the
// result visibly instead of reading stale data. Idle pooled bytes are
// deliberately NOT charged: they model a reusable arena owned by the
// runtime, and `idle_bytes()` exposes them separately.
//
// Exact size classes (not power-of-two buckets) are intentional: repeated
// runs and the engine serve repeated identical shapes, where exact matching gives a 100% reuse
// rate, and it keeps the tracked footprint identical to the unpooled path
// instead of inflating it by round-up slack.
//
// A pool is owned by one rank and is not thread-safe. Activate it with
// PoolScope; TrackedBuffer::resize picks up the scope's pool through a
// thread-local (which the fiber scheduler saves and restores per fiber), so
// the whole CA3DMM call tree (driver, 2-D engines, redistribution) is
// pool-backed without signature changes.
#pragma once

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
  i64 bytes_reused = 0;    ///< total bytes served from free lists
  i64 trims = 0;           ///< allocations freed to respect max_idle_bytes
  i64 bytes_zeroed = 0;    ///< bytes zero-filled on request by acquire

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
  /// type), zeroed if `zero` (see the file comment for the unzeroed fill).
  /// The caller must return it via give_back with the same size.
  void* acquire(i64 bytes, bool zero = false);
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
  i64 footprint_budget() const { return footprint_budget_bytes_; }

  i64 idle_bytes() const { return idle_bytes_; }
  i64 live_bytes() const { return stats_.live_bytes; }
  const PoolStats& stats() const { return stats_; }

 private:
  /// Folds the current footprint into the high-water gauge.
  void note_footprint();
  /// Frees idle allocations, largest first, while more than `target` idle
  /// bytes are parked.
  void evict_to(i64 target);

  std::map<i64, std::vector<void*>> free_;  ///< size in bytes -> free list
  i64 idle_bytes_ = 0;
  i64 max_idle_bytes_;
  i64 footprint_budget_bytes_ = 0;
  PoolStats stats_;
};

/// The pool new TrackedBuffers of the calling thread draw from (null when no
/// PoolScope is active).
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

}  // namespace ca3dmm::simmpi
