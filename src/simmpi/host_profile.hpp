// Host-side counters of one Cluster::run: how much scheduling, locking and
// kernel work the simulator itself did. Like RankStats::p2p_zero_copy these observe the
// host, not the simulated machine, so they are outside the determinism
// contract — they move with the worker count and the host's timing.
#pragma once

#include <string>

#include "common/partition.hpp"

namespace ca3dmm::simmpi {

/// The lock classes the counters tell apart. Order is the lock order:
/// Cluster::mu_ (the run's failure state), then one communicator's
/// rendezvous lock, then inbox locks in ascending rank, then one of the
/// scheduler's (the per-worker run queues and its sleep lock).
enum class LockClass { kCluster, kComm, kInbox, kSched, kCount };

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
  /// Dispatches of a fiber on another worker than its previous dispatch in
  /// the run (the fiber's stack and data go cold in the new worker's cache).
  i64 migrations = 0;
  Lock locks[static_cast<int>(LockClass::kCount)];
  /// P2p payload bytes moved. Every byte is copied once, straight from the
  /// sender's buffer into the receiver's (a pending send pulled by the
  /// receiver, or a send delivered into a posted recv).
  i64 zero_copy_bytes = 0;
  /// Most channel slots any one rank's inbox held at once (a maximum, not
  /// a sum).
  i64 inbox_slots_peak = 0;

  /// Fiber stacks mapped by this run: every rank on a Cluster's first run
  /// (or after a stack-size or worker-count change), 0 on later runs.
  i64 stacks_mapped = 0;
  /// Ranks whose memory block (RankCtx::pool) already held this run's
  /// arenas (reused), and grows of those blocks (heap allocations). An
  /// engine's own block is not counted.
  i64 pool_hits = 0;
  i64 pool_misses = 0;
  /// Bytes the schedules zero-filled at alloc ops (GEMM accumulators).
  i64 pool_zeroed_bytes = 0;
  /// Rank schedules built for execution (core/schedule.hpp compile); a
  /// warm engine request builds none.
  i64 schedule_builds = 0;
  /// Bytes the schedules' data-only copy ops moved (packing, staging,
  /// panel appends); p2p copies are counted above.
  i64 copy_bytes = 0;

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
