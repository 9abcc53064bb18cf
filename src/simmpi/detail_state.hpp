// Internal rendezvous state shared by Cluster and Comm. Not part of the
// public API.
//
// Where each piece of state lives, and its lock:
//   * Inbox (one per world rank, its own mutex): the rank's p2p channel
//     slots — pending SendRec FIFO, posted RecvRec, wait list — and the
//     fault plan's per-(src, tag) flip match counts.
//   * CommState (one per communicator, Cluster::mu_): the in-flight
//     collective rendezvous and its wait list.
// Lock order: Cluster::mu_ -> inbox[r] ascending -> one scheduler lock (a
// worker's run queue or the sleep lock).
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

/// A pending send. Plain send() is eager (MPI standard-mode style): the
/// payload is copied into `owned` and the sender proceeds, so send/recv
/// ordering across communicators cannot deadlock. sendrecv() deposits the
/// caller's buffer zero-copy and rendezvous-waits, which is safe because
/// both directions are posted before either blocks. Guarded by the
/// destination inbox's lock while queued.
struct SendRec {
  const void* buf = nullptr;
  i64 bytes = 0;
  double t_entry = 0;
  bool consumed = false;
  double t_exit = 0;
  /// Receiver's entry clock, written when the record is consumed; lets a
  /// rendezvous sender trace which side bounded its completion wait.
  double t_consumer_entry = 0;
  std::unique_ptr<char[]> owned;  ///< non-null for eager sends
  bool eager = false;
  SendRec* next = nullptr;  ///< next record in the channel slot's FIFO
};

/// A posted receive, registered on its channel slot while the receiver is
/// parked in recv with an empty FIFO. A sender that finds it delivers
/// zero-copy: memcpy straight into `buf`, payload flip applied in place,
/// and the receiver's exit time computed on the spot from its own
/// slowdown, skipping the eager staging copy entirely. Lives on the
/// receiver's stack; the receiver unregisters it on every exit path of its
/// wait. Guarded by the receiver's inbox lock.
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

/// One p2p channel (comm, src -> the inbox's rank, tag).
struct ChannelSlot {
  SlotKey key;
  SendRec* head = nullptr;  ///< FIFO of pending sends, linked by next
  SendRec* tail = nullptr;
  RecvRec* posted = nullptr;  ///< the receiver's posted recv, if parked
  /// The receiver waiting for a message, and a sendrecv sender waiting for
  /// its record to be consumed.
  WaitList waiters;

  bool idle() const {
    return head == nullptr && posted == nullptr && waiters.empty();
  }
  void push(SendRec* r) {
    r->next = nullptr;
    (tail != nullptr ? tail->next : head) = r;
    tail = r;
  }
  SendRec* pop() {
    SendRec* r = head;
    head = r->next;
    if (head == nullptr) tail = nullptr;
    return r;
  }
  /// Unlinks `r` from anywhere in the FIFO (a sendrecv unwinding with its
  /// stack record still queued).
  void unlink(SendRec* r) {
    SendRec* prev = nullptr;
    for (SendRec* c = head; c != nullptr; prev = c, c = c->next) {
      if (c != r) continue;
      (prev != nullptr ? prev->next : head) = c->next;
      if (tail == c) tail = prev;
      return;
    }
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
  GroupProfile prof;
  LinkParams link;
  /// Collective configuration: copied from the cluster default at creation,
  /// overridable per communicator via Comm::set_collective_config. Guarded
  /// by the rendezvous lock.
  CollectiveConfig cfg;

  // --- rendezvous ---
  // Written under the rendezvous lock. The completion fields below
  // (exit_time .. coll_error_gen, dm_ok, split_out) are written by the last
  // arriver before it bumps `generation` (release), so a woken member reads
  // them after an acquire load of `generation`, without the lock: nothing
  // rewrites them before every member has arrived at the next collective.
  Op op = Op::kNone;
  int arrived = 0;
  std::atomic<std::uint64_t> generation{0};
  double exit_time = 0;
  /// Per-member share of the completed collective's modeled inter-node
  /// bytes (aggregate / p), accounted into RankStats by every member.
  double coll_inter = 0;
  /// Trace metadata of the completed rendezvous, written by the last
  /// arriver under mu_ and snapshotted by every member before leaving:
  /// the full modeled cost (schedule name, total bytes), the rendezvous
  /// start (= the last arriver's entry clock), and the world rank whose
  /// late arrival set that start time (the collective's critical-path
  /// predecessor; ties resolve to the lowest member index).
  CollCost coll_cost;
  double coll_t0 = 0;
  int coll_crit_world = -1;
  /// Non-empty when the in-flight rendezvous failed a consistency check (or
  /// its cost/validation step threw): every member throws this as a
  /// ca3dmm::Error, so collective argument errors are raised collectively.
  /// Tagged with the generation it belongs to so a slow waiter of an old
  /// rendezvous can never observe a newer rendezvous's error (or vice
  /// versa).
  std::string coll_error;
  std::uint64_t coll_error_gen = 0;

  // --- data-movement completion barrier ---
  // The bulk memcpy/summation of a collective runs *outside* the rendezvous
  // lock, sharded across the participating ranks; these fields make every
  // member wait until all shards finished before returning (a member that
  // returned early could free buffers a peer's shard still touches).
  bool dm_ok = false;  ///< movement may run (no validation error)
  /// Members yet to check out of the barrier; each decrements it without
  /// the lock, and the one that reaches 0 wakes the rest.
  std::atomic<int> dm_remaining{0};

  struct Slot {
    const void* sbuf = nullptr;
    void* rbuf = nullptr;
    i64 n0 = 0;
    int i0 = 0, i1 = 0;
    const std::vector<i64>* v0 = nullptr;
    std::span<const PeerBlock> sends, recvs;  ///< alltoallv lists
    double t_entry = 0;
    Dtype dt = Dtype::kF64;
  };
  std::vector<Slot> slots;
  Dtype dtype = Dtype::kF64;
  int root = 0;

  /// Per-member results of a split (new state + index within it).
  std::vector<std::pair<std::shared_ptr<CommState>, int>> split_out;

  /// Fibers parked in coll_wait (guarded by the rendezvous lock).
  WaitList waiters;

  // CommState is a friend of Cluster; these let the collective runner reach
  // the cluster-wide rendezvous lock and failure-handling state.
  std::unique_lock<std::mutex> lock() const { return cluster->lock_mu(); }
  /// Parks the calling rank (world rank `me_world`) on this communicator's
  /// rendezvous until `pred` holds; `pred` reads only atomics, so a woken
  /// rank re-checks it without re-taking the lock. `lk` (on the rendezvous
  /// lock) may be held or not on entry and is released on return. The rank
  /// records the list it is on, so an abort can find it.
  template <typename Pred>
  void coll_wait(std::unique_lock<std::mutex>& lk, int me_world, Pred&& pred) {
    while (!pred()) {
      if (!lk.owns_lock()) {
        lk = lock();
        if (pred()) break;
      }
      cluster->coll_parked_[static_cast<size_t>(me_world)] = this;
      cluster->park(waiters, lk);
    }
    if (lk.owns_lock()) lk.unlock();
  }
  /// Wakes fibers parked in coll_wait, clearing their records. Lock held.
  void wake_coll() {
    for (Fiber* f = waiters.head; f != nullptr; f = f->wait_next)
      cluster->coll_parked_[static_cast<size_t>(f->rank)] = nullptr;
    cluster->fiber_sched_->wake_all(waiters);
  }
  bool aborted() const { return cluster->aborting(); }
  bool validation() const { return cluster->validate_; }
  void fault_point(RankCtx* ctx) const { cluster->fault_point(ctx); }
  const StragglerPolicy& straggler_policy() const {
    return cluster->straggler_policy_;
  }
  void note_degraded(int node) const { cluster->note_degraded_locked(node); }
  const Machine& machine() const { return cluster->machine_; }
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
