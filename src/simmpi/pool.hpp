// One growable block of memory per owner: where a rank's work memory comes
// from.
//
// Every work buffer of a run is a slot of its schedule's arena
// (core/schedule.hpp packs them), and a redistribution's two staging slots
// sit in a tail behind the packed slots, sized once the layouts bind. So
// an owner needs exactly one block: the arena of the run in progress. A
// Cluster keeps one per rank (RankCtx::pool) from its first run to its
// destructor, so a repeated run reuses memory the last one faulted in; a
// PgemmEngine owns one and runs every request out of it.
//
// The block only grows. Growing frees the old block before allocating the
// new one, so the footprint is one block, never the sum of every size it
// had. Block memory is raw and untracked: the rank's tracker sees a slot
// between its alloc and free ops (Table I semantics), and the block's own
// gauges report its size and high-water mark, what a serving budget bounds.
//
// A block is owned by one rank and is not thread-safe.
#pragma once

#include <cstddef>

#include "common/partition.hpp"

namespace ca3dmm::simmpi {

/// Reuse statistics of one block. The counters are monotonic over the
/// block's lifetime; the gauges track its footprint.
struct PoolStats {
  i64 hits = 0;    ///< uses the block already held the bytes for
  i64 misses = 0;  ///< grows (heap allocations)

  // --- gauges ---
  i64 live_bytes = 0;        ///< bytes of the block now allocated
  i64 high_water_bytes = 0;  ///< largest block ever allocated

  double hit_rate() const {
    const i64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class BufferPool {
 public:
  BufferPool() = default;
  ~BufferPool() { release(); }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// At least `bytes` bytes, 64-byte aligned: the block itself if it holds
  /// them, else a larger block (a miss; the old one is freed first, and
  /// its contents are lost). The first reserve of a use that fits counts
  /// a hit; later ones that fit, and any of 0 bytes, count nothing, so a
  /// warm owner that reserves per request acquires nothing.
  std::byte* reserve(i64 bytes);
  /// Starts a new use: the next reserve counts again. A Cluster starts one
  /// per rank at every run.
  void begin_use() { counted_ = false; }
  /// Frees the block.
  void release();

  i64 live_bytes() const { return stats_.live_bytes; }
  const PoolStats& stats() const { return stats_; }

 private:
  std::byte* data_ = nullptr;
  bool counted_ = false;  ///< this use already counted a hit or a miss
  PoolStats stats_;
};

}  // namespace ca3dmm::simmpi
