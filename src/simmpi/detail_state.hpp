// Internal rendezvous state shared by Cluster and Comm. Not part of the
// public API.
//
// Where each piece of state lives, and its lock:
//   * Inbox (one per world rank, its own mutex): the rank's p2p channel
//     slots — the pending SendRec, the posted RecvRec, the wait list — and
//     the fault plan's per-(src, tag) flip match counts.
//   * CommState (one per communicator, its own mutex): the in-flight
//     collective rendezvous and its wait list. The last arriver prices the
//     collective and moves every member's bytes under it, while the other
//     members are parked.
// Lock order: Cluster::mu_ -> one CommState -> inbox[r] ascending -> one
// scheduler lock (a worker's run queue or the sleep lock). Cluster::leaf_mu_
// (registry, degraded nodes) is a leaf under any of them.
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fiber.hpp"

namespace ca3dmm::simmpi::detail {

/// The send half of a sendrecv: the caller's buffer, deposited on its
/// channel slot without a copy while the sender rendezvous-waits, which is
/// safe because both directions are posted before either blocks. Lives on
/// the sender's stack; guarded by the destination inbox's lock while
/// pending.
struct SendRec {
  const void* buf = nullptr;
  i64 bytes = 0;
  double t_entry = 0;
  bool consumed = false;
  double t_exit = 0;
  /// Receiver's entry clock, written when the record is consumed; lets a
  /// rendezvous sender trace which side bounded its completion wait.
  double t_consumer_entry = 0;
};

/// A posted receive, registered on its channel slot while the receiver is
/// parked with no send pending. A sender that finds it delivers in place:
/// memcpy straight into `buf`, payload flip applied in place, and the
/// receiver's exit time computed on the spot from its own slowdown. Lives
/// on the receiver's stack; the receiver unregisters it on every exit path
/// of its wait. Guarded by the receiver's inbox lock.
struct RecvRec {
  void* buf = nullptr;
  i64 bytes = 0;
  double t_entry = 0;    ///< receiver's entry clock
  double slowdown = 1;   ///< receiver's straggler factor for the t_p2p charge
  bool filled = false;   ///< a sender delivered; t_exit/sender_entry valid
  double sender_entry = 0;
  double t_exit = 0;
};

/// Identity of a p2p channel inside its destination rank's inbox.
struct SlotKey {
  std::uint64_t comm_id = 0;
  int src = 0;  ///< world rank of the sender
  int tag = 0;
  bool operator==(const SlotKey&) const = default;
};

/// One p2p channel (comm, src -> the inbox's rank, tag). Its one sender
/// has at most one sendrecv in flight, so at most one send is pending.
struct ChannelSlot {
  SlotKey key;
  SendRec* pending = nullptr;  ///< the sender's unconsumed send, if any
  RecvRec* posted = nullptr;   ///< the receiver's posted recv, if parked
  /// The receiver waiting for a message, and a sendrecv sender waiting for
  /// its record to be consumed.
  WaitList waiters;

  bool idle() const {
    return pending == nullptr && posted == nullptr && waiters.empty();
  }
};

/// One rank's point-to-point inbox. A flat table of the channels with
/// anything pending, found by linear scan (a Cannon rank has two or three
/// live at once); a slot that falls idle is recycled, so the table holds
/// only live channels however many tags a run uses. Slots move when one is
/// recycled: look a slot up again after every park.
struct alignas(64) Inbox {
  std::mutex mu;
  std::vector<ChannelSlot> slots;
  /// Messages received per (world src, tag) on any communicator, counted
  /// only while the fault plan has flips (FaultPlan::FlipPayload::nth_match).
  std::map<std::pair<int, int>, int> flip_matches;

  ChannelSlot* find(const SlotKey& key) {
    for (ChannelSlot& s : slots)
      if (s.key == key) return &s;
    return nullptr;
  }
  /// The slot for `key`, appended if absent.
  ChannelSlot& get(const SlotKey& key) {
    if (ChannelSlot* s = find(key)) return *s;
    slots.emplace_back().key = key;
    i64& peak = host_counters().inbox_slots_peak;
    peak = std::max(peak, static_cast<i64>(slots.size()));
    return slots.back();
  }
  /// Recycles `key`'s slot if it exists and is idle.
  void release(const SlotKey& key) {
    ChannelSlot* s = find(key);
    if (s == nullptr || !s->idle()) return;
    *s = slots.back();
    slots.pop_back();
  }
};

/// Shared state of one communicator: membership plus a single in-flight
/// collective rendezvous. MPI semantics guarantee all members call the same
/// collective in the same order, so one slot set per communicator suffices.
struct CommState {
  /// Where a split delivers a member's new communicator and rank in it.
  using SplitResult = std::pair<std::shared_ptr<CommState>, int>;

  enum class Op {
    kNone,
    kBarrier,
    kBcast,
    kAllgather,
    kAllgatherv,
    kReduceScatter,
    kAllreduce,
    kAlltoallv,
    kSplit,
  };

  Cluster* cluster = nullptr;
  std::uint64_t id = 0;
  std::vector<int> members;  ///< world rank of each group rank
  /// Its cfg starts as the cluster default, is overridable per communicator
  /// (Comm::set_collective_config) and is guarded by the rendezvous lock.
  GroupPricing pricing;

  // --- rendezvous ---
  // Written under the rendezvous lock `mu`. The completion fields below
  // (coll_exit .. coll_error_gen) and every member's output buffers are
  // written by the last arriver before it bumps `generation` (release), so
  // a woken member reads them after an acquire load of `generation`,
  // without the lock: nothing rewrites them before every member has
  // arrived at the next collective.
  mutable std::mutex mu;
  Op op = Op::kNone;
  int arrived = 0;
  std::atomic<std::uint64_t> generation{0};
  /// Exit clock of the completed collective and each member's share of
  /// its modeled inter-node bytes, accounted into RankStats by every member.
  CollExit coll_exit;
  /// Trace metadata of the completed rendezvous, written by the last
  /// arriver under the rendezvous lock and snapshotted by every member:
  /// the full modeled cost (schedule name, total bytes), the rendezvous
  /// start (= the last arriver's entry clock), and the world rank whose
  /// late arrival set that start time (the collective's critical-path
  /// predecessor; ties resolve to the lowest member index).
  CollCost coll_cost;
  double coll_t0 = 0;
  int coll_crit_world = -1;
  /// Non-empty when the in-flight rendezvous failed its consistency check
  /// or straggler reclassification: every member throws this as a
  /// ca3dmm::Error, so collective argument errors are raised collectively.
  /// Tagged with the generation it belongs to so a slow waiter of an old
  /// rendezvous can never observe a newer rendezvous's error (or vice
  /// versa).
  std::string coll_error;
  std::uint64_t coll_error_gen = 0;

  struct Slot {
    const void* sbuf = nullptr;
    void* rbuf = nullptr;
    i64 n0 = 0;
    int i0 = 0, i1 = 0;
    std::span<const i64> v0;
    std::span<const PeerBlock> sends, recvs;  ///< alltoallv lists
    SplitResult* split_out = nullptr;         ///< the member's split result
    double t_entry = 0;
    Dtype dt = Dtype::kF64;
  };
  std::vector<Slot> slots;

  /// Fibers parked in coll_wait (guarded by the rendezvous lock).
  WaitList waiters;

  /// Takes the rendezvous lock, counted in the HostProfile.
  std::unique_lock<std::mutex> lock() const {
    return lock_counted(mu, LockClass::kComm);
  }
  // CommState is a friend of Cluster; these let the collective runner reach
  // the scheduler and the cluster's failure-handling state.
  /// Parks the calling rank on this communicator's rendezvous until `pred`
  /// holds; `pred` reads only atomics, so a woken rank re-checks it without
  /// re-taking the lock. `lk` holds the rendezvous lock on entry and is
  /// released on return. The abort finds the rank through the cluster's
  /// registry of communicators.
  template <typename Pred>
  void coll_wait(std::unique_lock<std::mutex>& lk, Pred&& pred) {
    while (!pred()) {
      if (!lk.owns_lock()) {
        lk = lock();
        if (pred()) break;
      }
      cluster->park(waiters, lk);
    }
    if (lk.owns_lock()) lk.unlock();
  }
  /// Wakes the fibers parked in coll_wait. Lock held.
  void wake_coll() { cluster->fiber_sched_->wake_all(waiters); }
  bool aborted() const { return cluster->aborting(); }
  void fault_point(RankCtx* ctx) const { cluster->fault_point(ctx); }
  const StragglerPolicy& straggler_policy() const {
    return cluster->straggler_policy_;
  }
  void note_degraded(int node) const { cluster->note_degraded(node); }
  const Topology& topology() const { return cluster->topo_; }

  static std::shared_ptr<CommState> create(Cluster* cl,
                                           std::vector<int> members);
};

inline const char* coll_op_name(CommState::Op op) {
  switch (op) {
    case CommState::Op::kNone: return "none";
    case CommState::Op::kBarrier: return "barrier";
    case CommState::Op::kBcast: return "bcast";
    case CommState::Op::kAllgather: return "allgather";
    case CommState::Op::kAllgatherv: return "allgatherv";
    case CommState::Op::kReduceScatter: return "reduce_scatter";
    case CommState::Op::kAllreduce: return "allreduce";
    case CommState::Op::kAlltoallv: return "alltoallv";
    case CommState::Op::kSplit: return "split";
  }
  return "?";
}

}  // namespace ca3dmm::simmpi::detail

namespace ca3dmm::simmpi {

inline detail::Inbox& Cluster::inbox(int world_rank) {
  return inboxes_[static_cast<size_t>(world_rank)];
}

}  // namespace ca3dmm::simmpi
