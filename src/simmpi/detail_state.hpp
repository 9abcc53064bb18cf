// Internal rendezvous state shared by Cluster and Comm. Not part of the
// public API.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm::simmpi::detail {

/// A pending send. Plain send() is eager (MPI standard-mode style): the
/// payload is copied into `owned` and the sender proceeds, so send/recv
/// ordering across communicators cannot deadlock. sendrecv() deposits the
/// caller's buffer zero-copy and rendezvous-waits, which is safe because
/// both directions are posted before either blocks.
struct SendRec {
  const void* buf = nullptr;
  i64 bytes = 0;
  double t_entry = 0;
  bool consumed = false;
  double t_exit = 0;
  /// Receiver's entry clock, written (under the cluster lock) when the
  /// record is consumed; lets a rendezvous sender trace which side bounded
  /// its completion wait.
  double t_consumer_entry = 0;
  std::unique_ptr<char[]> owned;  ///< non-null for eager sends
  bool eager = false;
};

/// A posted receive, registered in Cluster::posted_recvs_ while the receiver
/// is parked in recv with an empty channel. A sender that finds it (and an
/// empty channel — FIFO) delivers zero-copy: memcpy straight into `buf`,
/// payload flip applied in place, and the receiver's exit time computed on
/// the spot from its own slowdown, skipping the eager staging copy entirely.
/// Lives on the receiver's stack; the receiver unregisters it on every exit
/// path of its wait. All fields are guarded by the cluster lock.
struct RecvRec {
  void* buf = nullptr;
  i64 bytes = 0;
  double t_entry = 0;    ///< receiver's entry clock
  double slowdown = 1;   ///< receiver's straggler factor for the t_p2p charge
  bool filled = false;   ///< a sender delivered; t_exit/sender_entry valid
  double sender_entry = 0;
  double t_exit = 0;
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
  Op op = Op::kNone;
  int arrived = 0;
  std::uint64_t generation = 0;
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
  bool dm_ok = false;       ///< movement may run (no validation error)
  int dm_remaining = 0;     ///< members yet to check out of the barrier

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

  // CommState is a friend of Cluster; these let the collective runner reach
  // the cluster-wide rendezvous lock and failure-handling state.
  std::mutex& mu() const { return cluster->mu_; }
  /// Parks the calling rank on this communicator's rendezvous until `pred`
  /// holds.
  template <typename Pred>
  void coll_wait(std::unique_lock<std::mutex>& lk, Pred&& pred) const {
    cluster->rank_wait(lk, WaitKey::coll(id), std::forward<Pred>(pred));
  }
  /// Wakes fibers parked in coll_wait.
  void wake_coll() const { cluster->wake_key_locked(WaitKey::coll(id)); }
  bool aborted() const { return cluster->abort_requested_; }
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
