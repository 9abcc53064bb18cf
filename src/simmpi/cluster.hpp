// Simulated-cluster runtime.
//
// A Cluster runs P ranks as fibers in one address space, multiplexed over a
// small worker pool (fiber.hpp). Every rank owns a virtual clock;
// communication and compute operations advance it using the Machine model,
// so "runtime" reported by benchmarks is deterministic simulated time,
// independent of host scheduling, dispatch order and host core count. Data
// movement is real (ranks exchange actual buffers), so algorithm correctness
// is exercised end to end.
//
// Per-rank bookkeeping (virtual time per phase, peak tracked memory) is what
// the benchmark harness reads to reproduce the paper's tables and figures.
//
// Rank memory outlives a run. The Cluster keeps its fiber scheduler, with
// every rank's guard-paged stack, from the first run() to its destructor,
// and owns one growable block per rank (RankCtx::pool) that the one-shot
// schedules of that rank's body run in. A repeated run therefore maps no
// stacks and takes its work memory from what the last run already faulted
// in; tracking does not depend on where memory comes from (see pool.hpp),
// so results and peak bytes (Table I) do not change.
//
// Rendezvous state has one home and one lock per kind:
//   * point-to-point: every rank owns an Inbox (detail_state.hpp) of
//     channel slots keyed by (comm, source, tag); each half of a sendrecv
//     touches one slot under that inbox's own mutex and never takes mu_;
//   * collectives: each communicator's CommState, under that
//     communicator's own rendezvous lock; the last arriver prices the
//     collective and moves every member's bytes before it releases them;
//   * failure state (failed ranks, their errors, finished ranks, the
//     deadlock report): Cluster::mu_, which no rendezvous takes;
//   * dispatch: the FiberScheduler's per-worker run queues, each under its
//     own small lock, and its sleep/idle lock.
// Lock order: mu_, then one communicator's lock, then inbox locks in
// ascending rank, then one scheduler lock. No path holds two communicator
// or two inbox locks at once; the abort takes them one at a time. No path
// holds two scheduler locks. A leaf lock (leaf_mu_), under which nothing
// else is taken, guards the communicator registry and the degraded nodes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/partition.hpp"
#include "simmpi/clock_rules.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/host_profile.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/pool.hpp"
#include "simmpi/trace.hpp"

namespace ca3dmm::simmpi {

class Comm;

/// Mutable per-rank context; owned by Cluster, one per rank.
struct RankCtx : RankClock {
  int world_rank = 0;
  double last_op_cost = 0;   ///< virtual cost of the most recent comm op
  Phase cur_phase = Phase::kMisc;
  const Machine* machine = nullptr;
  bool trace_enabled = false;   ///< TraceConfig::enabled for this run
  bool trace_markers = false;   ///< TraceConfig::markers && enabled
  std::vector<TraceRecord> trace;
  double slowdown = 1.0;  ///< fault-injected straggler factor (>= 1)
  i64 comm_ops = 0;       ///< communication ops issued (fault-kill counter)
  /// The rank's memory block, kept by the Cluster across runs: a one-shot
  /// schedule's arena (core/schedule.hpp run_plan).
  BufferPool* pool = nullptr;

  // --- blocked-state, read by the deadlock report's wait-for table ---
  // Written by the rank itself around its waits; the report reads them only
  // once the scheduler is idle (every live rank parked), so no lock guards
  // them. `finished` is written under Cluster::mu_.
  const char* blocked_op = nullptr;  ///< non-null while parked in a wait
  std::uint64_t blocked_comm = 0;    ///< communicator id of the wait
  int blocked_peer = -1;  ///< p2p peer (group rank) or #arrived for collectives
  int blocked_tag = -1;   ///< p2p tag; -1 for collectives
  bool finished = false;  ///< rank body has returned
};

/// Context of the calling rank; null outside Cluster::run.
RankCtx* current_ctx();

/// Records a zero-duration trace marker on the calling rank's timeline at
/// its current virtual time (plan build, engine cache event, redistribution
/// pack/unpack, ...). `name` must be a static string. No-op outside a rank
/// or when markers are not being recorded, so instrumented library
/// code pays one branch when tracing is off.
inline void trace_marker(const char* name, double bytes = 0) {
  RankCtx* ctx = current_ctx();
  if (!ctx || !ctx->trace_markers) return;
  TraceRecord r;
  r.kind = TraceKind::kMarker;
  r.phase = ctx->cur_phase;
  r.t0 = r.t1 = ctx->clock;
  r.name = name;
  r.bytes_out = bytes;
  ctx->trace.push_back(r);
}

namespace detail {
struct CommState;
struct SendRec;
struct Inbox;
struct ChannelSlot;
struct WaitList;
class FiberScheduler;

/// Installs `next` as the calling thread's rank context and returns the
/// previous one. Every write of the rank-context thread-local goes through
/// here: the fiber scheduler around context switches and the rank body
/// around rank_main. Out of line on purpose: a fiber may resume
/// on another worker, and an inlined access could reuse a thread pointer
/// cached before the switch (ThreadSanitizer's instrumentation does).
[[gnu::noinline]] RankCtx* swap_rank_tls(RankCtx* next);

/// Thrown by blocking primitives when the cluster is unwinding after a peer
/// failure (cooperative abort). Deliberately not derived from std::exception
/// so rank code catching std::exception does not swallow the unwind; caught
/// only by Cluster::run's per-rank wrapper.
struct ClusterAborted {};
}  // namespace detail

/// A simulated cluster of `nranks` ranks with a fixed machine model.
class Cluster {
 public:
  /// Homogeneous convenience: wraps Topology::homogeneous(nranks, machine).
  Cluster(int nranks, Machine machine);
  /// Heterogeneous multi-cluster model (or a shrunk survivor topology with
  /// pinned physical node ids): ranks, machines and the rank -> (cluster,
  /// node) map all come from `topo`.
  explicit Cluster(Topology topo);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs `rank_main` on every rank (each a fiber; every worker runs the
  /// fiber it woke most recently first) with a world communicator, and
  /// waits for all ranks to finish. Statistics are reset at entry,
  /// finalized for every rank (failed or not), and readable afterwards.
  ///
  /// Failure semantics: a rank exception triggers a cooperative abort — all
  /// peers blocked in communication unwind, run() always joins, and a single
  /// ca3dmm::Error listing *every* failed rank is thrown. A deadlock (no
  /// fiber runnable or running while some rank has not finished) is
  /// detected the moment the last running fiber parks and reported as an
  /// Error carrying the full wait-for table instead of hanging.
  void run(const std::function<void(Comm&)>& rank_main);

  int nranks() const { return nranks_; }
  /// Anchor machine (cluster 0 of the topology) — the legacy single-machine
  /// view. Per-rank machines and node placement live in topology().
  const Machine& machine() const { return machine_; }
  const Topology& topology() const { return topo_; }

  /// Ranks always run as fibers. The single-valued enum and set_backend
  /// remain only for callers that still spell them; they select nothing.
  enum class Backend { kFibers };
  void set_backend(Backend) {}

  /// Usable stack per fiber (a guard page is added below). Default 1 MiB.
  /// Rank bodies that recurse deeply or place large arrays on the stack
  /// need more; an overflow hits the guard page and faults instead of
  /// corrupting a neighbour. Stacks are kept across runs; a new size
  /// rebuilds them at the next run().
  void set_fiber_stack_bytes(std::size_t bytes) { fiber_stack_bytes_ = bytes; }

  /// Worker threads running the rank fibers; 0 (default) picks
  /// min(hardware_concurrency, nranks), and the pool never grows. A rank
  /// that blocks in the OS (a std::mutex, a join) holds its worker until it
  /// returns. Results never depend on the count; with 1 the dispatch order
  /// itself is deterministic. A new count rebuilds the scheduler (and its
  /// stacks) at the next run().
  void set_fiber_workers(int n) { fiber_workers_ = n; }

  /// Stats of one rank after run().
  const RankStats& stats(int rank) const;

  /// Host-side counters of the last run() (see HostProfile): context
  /// switches, parks, wakes, steals, lock acquisitions per lock class, p2p
  /// bytes copied, stacks mapped, rank-block reuse and the kernel's share
  /// (page faults, voluntary switches, system CPU). Not part of the
  /// determinism contract.
  const HostProfile& host_profile() const { return host_prof_; }

  /// Aggregate across ranks (fold_rank_stats): max vtime, max per-phase
  /// time, max peak memory, summed flops, summed inter-node bytes (see
  /// RankStats::inter_bytes_s), compute load balance.
  RankStats aggregate_stats() const;

  /// Enables per-rank structured trace recording for subsequent run()
  /// calls. Zero overhead when off: the cost/clock arithmetic is shared
  /// with the untraced path, so vtimes and results are bit-identical.
  void set_trace(bool enabled) { trace_cfg_.enabled = enabled; }
  void set_trace(const TraceConfig& cfg) { trace_cfg_ = cfg; }
  const TraceConfig& trace_config() const { return trace_cfg_; }

  /// Trace records of one rank after a traced run(), in clock order.
  const std::vector<TraceRecord>& trace(int rank) const;

  /// Attaches a deterministic fault-injection plan to subsequent run()
  /// calls; pass a default-constructed FaultPlan to clear.
  void set_fault_plan(FaultPlan plan) { faults_ = std::move(plan); }

  /// Straggler reclassification policy for subsequent run() calls (see
  /// StragglerPolicy). Disabled by default.
  void set_straggler_policy(StragglerPolicy p) { straggler_policy_ = p; }
  const StragglerPolicy& straggler_policy() const { return straggler_policy_; }

  // ---- post-run failure attribution (read after run() threw) ----
  /// Ranks recorded as failed by the last run(), ascending. A rank that
  /// threw its own error is recorded; peers that merely unwound through the
  /// cooperative abort are not — so kill-style faults attribute to exactly
  /// the killed ranks. Collectively-raised errors (argument validation,
  /// straggler reclassification) are thrown by every member and list them
  /// all; consult degraded_nodes() first to tell the two apart.
  std::vector<int> failed_ranks() const;
  /// First recorded error of one rank ("" if it did not fail).
  const std::string& rank_error(int rank) const;
  /// Nodes reclassified as degraded by the straggler policy during the last
  /// run(), ascending. Non-empty means the failure is node-level: shrink
  /// recovery should drop every rank of these nodes rather than the (all-
  /// member) failed_ranks() set.
  std::vector<int> degraded_nodes() const;

  /// Default collective configuration for communicators created afterwards
  /// (the world comm of the next run(), and splits of comms that inherited
  /// it). Call between runs; Comm::set_collective_config overrides per
  /// communicator. The default reproduces the paper's butterfly costs.
  void set_collective_config(const CollectiveConfig& c) { coll_config_ = c; }
  const CollectiveConfig& collective_config() const { return coll_config_; }

  /// Writes the recorded timelines of the last run() in Chrome trace-event
  /// JSON (open in chrome://tracing or https://ui.perfetto.dev): one pid
  /// per simulated node, one tid per rank, one slice per operation,
  /// microsecond = simulated microsecond. Requires set_trace before run().
  /// (Delegates to write_chrome_trace_file in trace.hpp.)
  void write_chrome_trace(const std::string& path) const;

 private:
  friend class Comm;
  friend struct detail::CommState;

  /// One rank's fiber body: installs the rank context, runs rank_main under
  /// the abort/error wrappers, and does the finish bookkeeping.
  void rank_body(int rank, const std::function<void(Comm&)>& rank_main,
                 const std::shared_ptr<detail::CommState>& world);

  // --- fiber parking / wake-ups ---
  /// Parks the calling rank fiber on `list`. The caller holds `lk`, the
  /// lock guarding `list`; it is released, and stays released once a waker
  /// resumes the fiber, which then re-checks its predicate. Parking is the
  /// only way anything waits in the cluster, which is what makes deadlock
  /// detection exact.
  void park(detail::WaitList& list, std::unique_lock<std::mutex>& lk);
  /// Wakes every parked fiber: each live communicator's collective
  /// waiters under its lock, then each inbox's slot waiters under that
  /// inbox's lock, ascending. mu_ held.
  void wake_all_fibers_locked();

  // --- locks, counted in the HostProfile ---
  std::unique_lock<std::mutex> lock_mu();
  std::unique_lock<std::mutex> lock_inbox(int world_rank);

  // --- point-to-point inboxes (each under its own mutex) ---
  detail::Inbox& inbox(int world_rank);  ///< defined in detail_state.hpp
  /// Delivers `bytes` from `buf` straight into the recv posted on `slot` of
  /// rank `dst`'s inbox (lock held), if one is posted. Computes the
  /// receiver's exit time, applies payload flips, wakes the receiver, and
  /// fills `sender_rec`'s completion fields as if the receiver had consumed
  /// it. Returns false when the send must stay pending instead (no posted
  /// recv, or a size mismatch — so the *receiver* raises the size error).
  bool try_deliver_posted_locked(detail::ChannelSlot& slot, int dst,
                                 const void* buf, i64 bytes, double t_entry,
                                 detail::SendRec& sender_rec);

  // --- cooperative abort ---
  /// Records `what` as rank `world_rank`'s failure (first error per rank
  /// wins; world_rank < 0 records no rank), sets the abort flag, and wakes
  /// every blocked rank so it unwinds via detail::ClusterAborted. mu_ held.
  void request_abort_locked(int world_rank, const std::string& what);
  /// True once an abort is in flight. Any lock (or none) may be held: the
  /// flag is set before the abort takes each wait list's lock, so a waiter
  /// that checks it under that lock either sees it or is already listed.
  bool aborting() const {
    return abort_requested_.load(std::memory_order_acquire);
  }
  /// Throws detail::ClusterAborted if an abort is in flight.
  void check_abort() const {
    if (aborting()) throw detail::ClusterAborted{};
  }

  // --- fault injection ---
  /// Counts one communication op on `ctx` and throws ca3dmm::Error if the
  /// fault plan kills this rank at this op. No lock needed: the plan is
  /// immutable during run() and the counter is rank-private.
  void fault_point(RankCtx* ctx);
  /// Applies any matching payload flip to a just-received message from
  /// world rank `src` to `dst` on `tag`. The match count is per world
  /// (src, dst, tag) across communicators; it lives in dst's inbox, whose
  /// lock the caller holds.
  void maybe_flip_payload_locked(int src, int dst, int tag, void* buf,
                                 i64 bytes);
  /// Records a node the straggler policy reclassified as degraded. Takes
  /// leaf_mu_, so a rendezvous may call it under its communicator's lock.
  void note_degraded(int node);
  /// Adds a new communicator to the registry the abort walks. Takes
  /// leaf_mu_.
  void register_comm(const std::shared_ptr<detail::CommState>& st);

  // --- deadlock report ---
  /// Reads every rank's blocked_* fields; call only while the scheduler is
  /// idle (no rank can write them).
  std::string wait_for_table() const;

  int nranks_;
  Topology topo_;
  Machine machine_;  ///< anchor copy: topo_.machine() (cluster 0)
  std::vector<RankCtx> ctx_;

  /// Lock of the run-scoped failure state below. No rendezvous takes it.
  std::mutex mu_;
  /// One p2p inbox per world rank, each under its own mutex.
  std::unique_ptr<detail::Inbox[]> inboxes_;
  /// Unique, not ordered: sibling splits draw ids in host order.
  std::atomic<std::uint64_t> next_comm_id_{1};
  TraceConfig trace_cfg_;
  FaultPlan faults_;
  StragglerPolicy straggler_policy_;
  CollectiveConfig coll_config_;  ///< default for new communicators

  // --- run-scoped failure state (guarded by mu_) ---
  std::atomic<bool> abort_requested_{false};  ///< set under mu_, read anywhere
  int finished_count_ = 0;  ///< rank bodies that returned
  std::vector<std::string> rank_errors_;
  std::vector<std::uint8_t> rank_failed_;
  std::string deadlock_report_;

  // --- guarded by leaf_mu_ (a leaf: nothing else is taken under it) ---
  std::mutex leaf_mu_;
  /// Nodes the straggler policy reclassified as degraded (sorted, unique).
  std::vector<int> degraded_nodes_;
  /// Every communicator created on this cluster; expired entries are
  /// pruned once the list doubles. The abort snapshots the live ones.
  std::vector<std::weak_ptr<detail::CommState>> comms_;
  std::size_t comms_prune_at_ = 64;

  // --- fiber scheduler state ---
  std::size_t fiber_stack_bytes_ = 0;  ///< 0 = default (1 MiB)
  int fiber_workers_ = 0;              ///< 0 = auto
  /// The scheduler and its fiber stacks: built by the first run(), rebuilt
  /// when the stack size or worker count changed, kept until ~Cluster.
  std::unique_ptr<detail::FiberScheduler> fiber_sched_;
  /// One block per rank, reached through its RankCtx; it carries over to
  /// the next run.
  std::unique_ptr<BufferPool[]> rank_pools_;
  HostProfile host_prof_;  ///< counters of the last run()
};

}  // namespace ca3dmm::simmpi
