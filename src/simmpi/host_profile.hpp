// Host-side counters of one Cluster::run: how much scheduling, locking and
// kernel work the simulator itself did. Like RankStats::p2p_zero_copy these observe the
// host, not the simulated machine, so they are outside the determinism
// contract — they move with the worker count and the host's timing.
#pragma once

#include <string>

#include "common/partition.hpp"

namespace ca3dmm::simmpi {

/// The lock classes the counters tell apart. Order is the lock order:
/// Cluster::mu_, then inbox locks in ascending rank, then one of the
/// scheduler's (the per-worker run queues and its sleep lock).
enum class LockClass { kCluster, kInbox, kSched, kCount };

const char* lock_class_name(LockClass c);

/// Counters of one run, summed over worker threads (and the thread driving
/// the run) at its end. Each worker counts into its own block, so the hot
/// paths share no counters.
struct HostProfile {
  struct Lock {
    i64 acquired = 0;   ///< explicit acquisitions (condvar re-locks excluded)
    i64 contended = 0;  ///< acquisitions whose try_lock failed first
    double contended_frac() const {
      return acquired > 0 ? static_cast<double>(contended) / acquired : 0.0;
    }
  };
  i64 switches = 0;  ///< fiber dispatches (worker -> fiber context switches)
  i64 parks = 0;     ///< fibers parked on a wait list
  i64 wakes = 0;     ///< wake-ups of parked fibers
  i64 steals = 0;    ///< dispatches a worker took from another's run queue
  Lock locks[static_cast<int>(LockClass::kCount)];
  /// P2p payload bytes staged through an eager buffer (copied twice: into
  /// the buffer by send, out of it by recv).
  i64 eager_bytes = 0;
  /// P2p payload bytes copied once, straight from the sender's buffer into
  /// the receiver's (a sendrecv record consumed in place, or a send into a
  /// posted recv).
  i64 zero_copy_bytes = 0;
  /// Most channel slots any one rank's inbox held at once (a maximum, not
  /// a sum).
  i64 inbox_slots_peak = 0;

  /// Fiber stacks mapped by this run: every rank on a Cluster's first run
  /// (or after a stack-size or worker-count change), 0 on later runs.
  i64 stacks_mapped = 0;
  /// TrackedBuffer allocations served by the ranks' own BufferPools from
  /// memory an earlier allocation returned (hits) or from the heap
  /// (misses). Pools an engine installs over them are not counted.
  i64 pool_hits = 0;
  i64 pool_misses = 0;

  // getrusage(RUSAGE_THREAD) deltas over the run, Linux only (0 elsewhere):
  // what the run cost the kernel.
  i64 minor_faults = 0;  ///< minor page faults
  i64 vol_switches = 0;  ///< voluntary context switches (futex sleeps)
  double sys_cpu_s = 0;  ///< system CPU seconds

  Lock& lock(LockClass c) { return locks[static_cast<int>(c)]; }
  const Lock& lock(LockClass c) const { return locks[static_cast<int>(c)]; }
  HostProfile& operator+=(const HostProfile& o);
  /// Human-readable multi-line summary.
  std::string table() const;
};

}  // namespace ca3dmm::simmpi
