// Communicator for the simulated cluster — the MPI subset every PGEMM
// algorithm in this repository needs.
//
// Semantics follow MPI: collectives are called by every member of the
// communicator with matching operation, root, sizes, counts and dtype (a
// mismatch raises the same ca3dmm::Error on every member before any data
// moves). The only point-to-point operation is sendrecv, a blocking
// rendezvous matched by (source, destination, tag): the payload moves by one
// memcpy from the sender's buffer into the receiver's, and the call returns
// once its receive is complete and its send consumed. Each operation moves
// real data between rank buffers AND charges
// virtual time to every participant by the rules of clock_rules.hpp (a
// collective: exit clock = max(entry clocks) + its GroupPricing cost).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/partition.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm::simmpi {

/// Element type tag for reduction operations.
enum class Dtype { kF32, kF64 };

inline i64 dtype_size(Dtype d) { return d == Dtype::kF64 ? 8 : 4; }

template <typename T>
constexpr Dtype dtype_of();
template <>
constexpr Dtype dtype_of<float>() { return Dtype::kF32; }
template <>
constexpr Dtype dtype_of<double>() { return Dtype::kF64; }

/// One peer's share of a sparse alltoallv: `bytes` bytes at byte offset
/// `displ` of the send (or receive) buffer.
struct PeerBlock {
  int peer = 0;
  i64 bytes = 0;
  i64 displ = 0;
};

class Comm {
 public:
  Comm() = default;

  int rank() const;
  int size() const;
  /// World rank of group member `r`.
  int world_rank_of(int r) const;
  int world_rank() const { return world_rank_of(rank()); }
  bool same_node(int other) const;
  /// The cluster's anchor machine (cluster 0 of the topology). Collective
  /// formulas key off this plus the group profile; per-rank compute rates
  /// come from my_machine().
  const Machine& machine() const;
  /// The machine of the *calling rank's* node — differs from machine() on a
  /// heterogeneous Topology. Only meaningful from within rank code.
  const Machine& my_machine() const;
  /// The topology of the underlying cluster (rank -> cluster/node map).
  const Topology& topology() const;
  const GroupProfile& profile() const;
  bool valid() const { return state_ != nullptr; }

  /// MPI_Comm_split: ranks with equal `color` form a new communicator,
  /// ordered by (key, current rank). color < 0 returns an invalid Comm
  /// (MPI_UNDEFINED). Collective; charges one small-word allgather of setup
  /// latency to every member (which is what the engine's communicator cache
  /// amortizes across calls).
  Comm split(int color, int key) const;

  /// Cheap local handle duplication (NOT MPI_Comm_dup): the copy shares the
  /// rendezvous state and charges no virtual time. This is the hook the
  /// persistent engine uses to retain split communicators across calls.
  Comm dup() const { return *this; }

  /// Stable identifier of the underlying communicator (0 for invalid
  /// comms); dup()ed handles share the id, split always mints a new one.
  std::uint64_t id() const;

  /// Overrides the collective configuration of this communicator (shared
  /// with every dup() of it). Charges no virtual time. Like an MPI info
  /// hint, it must be set consistently on all members, and only while no
  /// collective is in flight on the communicator (e.g. right after split).
  void set_collective_config(const CollectiveConfig& cfg);
  CollectiveConfig collective_config() const;

  // ---- point-to-point ----
  /// Simultaneous send+receive (deadlock-free on shift rings): sends
  /// `sbytes` to `dst` and receives exactly `rbytes` from `src`, both on
  /// `tag`. A receive size that differs from the matching send raises
  /// ca3dmm::Error on the receiver.
  void sendrecv_bytes(const void* sbuf, i64 sbytes, int dst, void* rbuf,
                      i64 rbytes, int src, int tag);

  // ---- collectives ----
  void barrier();
  void bcast_bytes(void* buf, i64 bytes, int root);
  /// Every rank contributes `bytes_each`; result (size * bytes_each) lands in
  /// rank order in rbuf on every rank.
  void allgather_bytes(const void* sbuf, i64 bytes_each, void* rbuf);
  /// Variable-size allgather; counts[r] = bytes contributed by rank r.
  void allgatherv_bytes(const void* sbuf, i64 my_bytes, void* rbuf,
                        std::span<const i64> counts);
  /// Reduce-scatter with sum: sbuf holds sum(counts) elements on every rank;
  /// rank r receives the element-wise sum of segment r (counts[r] elements).
  /// `custom_tree` models an application-implemented reduction tree (what
  /// COSMA does) instead of the MPI library's MPI_Reduce_scatter: it skips
  /// the machine's large-message degradation (paper §IV-C).
  void reduce_scatter_sum(const void* sbuf, void* rbuf,
                          std::span<const i64> counts, Dtype dtype,
                          bool custom_tree = false);
  void allreduce_sum(const void* sbuf, void* rbuf, i64 count, Dtype dtype);
  /// Sparse personalized all-to-all: `sends` / `recvs` list only the peers
  /// this rank exchanges bytes with, by strictly ascending peer (a peer
  /// left out exchanges 0 bytes). Every nonzero send must meet an equal
  /// receive entry on its peer; a mismatch raises the same error on every
  /// member before any data moves. Cost O(listed entries), not O(size()).
  void alltoallv_bytes(const void* sbuf, std::span<const PeerBlock> sends,
                       void* rbuf, std::span<const PeerBlock> recvs);

  // ---- typed convenience wrappers ----
  template <typename T>
  void sendrecv(const T* sbuf, i64 sn, int dst, T* rbuf, i64 rn, int src,
                int tag) {
    sendrecv_bytes(sbuf, sn * static_cast<i64>(sizeof(T)), dst, rbuf,
                   rn * static_cast<i64>(sizeof(T)), src, tag);
  }
  template <typename T>
  void bcast(T* buf, i64 n, int root) {
    bcast_bytes(buf, n * static_cast<i64>(sizeof(T)), root);
  }
  template <typename T>
  void allgather(const T* sbuf, i64 n_each, T* rbuf) {
    allgather_bytes(sbuf, n_each * static_cast<i64>(sizeof(T)), rbuf);
  }
  template <typename T>
  void reduce_scatter(const T* sbuf, T* rbuf, std::span<const i64> counts,
                      bool custom_tree = false) {
    reduce_scatter_sum(sbuf, rbuf, counts, dtype_of<T>(), custom_tree);
  }
  template <typename T>
  void allreduce(const T* sbuf, T* rbuf, i64 n) {
    allreduce_sum(sbuf, rbuf, n, dtype_of<T>());
  }

  // ---- virtual clock ----
  double now() const;
  /// Charges a local GEMM of `flops` touching `bytes` (RankClock::
  /// charge_compute): the full GEMM time goes to the compute phase, and the
  /// clock advances by what does not hide behind `overlap_budget` seconds
  /// of already-charged communication (dual-buffer pipelining; 0 = none).
  void charge_compute(double flops, double bytes, double overlap_budget = 0);
  /// Charges memory-bandwidth-bound local processing of `bytes` bytes (one
  /// linear scan at the machine's per-rank intra-node bandwidth) to the
  /// current phase. Used for work that is neither a GEMM nor communication
  /// — e.g. ABFT checksum encode/decode scans, or the local copy an identity
  /// redistribution makes (local_work_time). `name` labels its trace
  /// record.
  void charge_local_work(double bytes, const char* name = "local-scan");
  /// Virtual cost of this rank's most recent communication operation.
  double last_op_cost() const;
  /// Selects the phase subsequent charges accumulate to.
  void set_phase(Phase p);
  Phase phase() const;

 private:
  friend class Cluster;
  explicit Comm(std::shared_ptr<detail::CommState> s, int my_index)
      : state_(std::move(s)), my_index_(my_index) {}

  /// The receive half of sendrecv_bytes.
  void recv_impl(void* buf, i64 bytes, int src, int tag);

  std::shared_ptr<detail::CommState> state_;
  int my_index_ = -1;
};

/// RAII helper: sets the phase on construction, restores on destruction.
class PhaseScope {
 public:
  PhaseScope(Comm& c, Phase p) : c_(c), saved_(c.phase()) { c_.set_phase(p); }
  ~PhaseScope() { c_.set_phase(saved_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Comm& c_;
  Phase saved_;
};

}  // namespace ca3dmm::simmpi
