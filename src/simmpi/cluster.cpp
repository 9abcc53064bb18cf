#include "simmpi/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "simmpi/detail_state.hpp"
#include "simmpi/fiber.hpp"

namespace ca3dmm::simmpi {

namespace {
thread_local RankCtx* g_ctx = nullptr;
}

RankCtx* current_ctx() { return g_ctx; }

namespace detail {

RankCtx* swap_rank_tls(RankCtx* next) {
  RankCtx* prev = g_ctx;
  g_ctx = next;
  return prev;
}

}  // namespace detail

const char* lock_class_name(LockClass c) {
  switch (c) {
    case LockClass::kCluster: return "cluster mu_";
    case LockClass::kComm: return "comm";
    case LockClass::kInbox: return "inbox";
    case LockClass::kSched: return "scheduler";
    default: return "?";
  }
}

HostProfile& HostProfile::operator+=(const HostProfile& o) {
  switches += o.switches;
  parks += o.parks;
  wakes += o.wakes;
  steals += o.steals;
  migrations += o.migrations;
  for (int c = 0; c < static_cast<int>(LockClass::kCount); ++c) {
    locks[c].acquired += o.locks[c].acquired;
    locks[c].contended += o.locks[c].contended;
  }
  zero_copy_bytes += o.zero_copy_bytes;
  inbox_slots_peak = std::max(inbox_slots_peak, o.inbox_slots_peak);
  stacks_mapped += o.stacks_mapped;
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  pool_zeroed_bytes += o.pool_zeroed_bytes;
  schedule_builds += o.schedule_builds;
  copy_bytes += o.copy_bytes;
  minor_faults += o.minor_faults;
  vol_switches += o.vol_switches;
  sys_cpu_s += o.sys_cpu_s;
  return *this;
}

std::string HostProfile::table() const {
  std::string out = strprintf(
      "  context switches %lld, parks %lld, wakes %lld, steals %lld, "
      "migrations %lld\n",
      static_cast<long long>(switches), static_cast<long long>(parks),
      static_cast<long long>(wakes), static_cast<long long>(steals),
      static_cast<long long>(migrations));
  for (int c = 0; c < static_cast<int>(LockClass::kCount); ++c)
    out += strprintf("  lock %-12s acquired %10lld  contended %9lld (%.2f%%)\n",
                     lock_class_name(static_cast<LockClass>(c)),
                     static_cast<long long>(locks[c].acquired),
                     static_cast<long long>(locks[c].contended),
                     100.0 * locks[c].contended_frac());
  out += strprintf("  p2p bytes copied %lld; inbox slots peak %lld\n",
                   static_cast<long long>(zero_copy_bytes),
                   static_cast<long long>(inbox_slots_peak));
  out += strprintf(
      "  fiber stacks mapped %lld; rank blocks reused %lld, grown %lld; "
      "schedules built %lld, zeroed %lld B, copies %lld B\n",
      static_cast<long long>(stacks_mapped), static_cast<long long>(pool_hits),
      static_cast<long long>(pool_misses),
      static_cast<long long>(schedule_builds),
      static_cast<long long>(pool_zeroed_bytes),
      static_cast<long long>(copy_bytes));
  out += strprintf(
      "  kernel: minor faults %lld, voluntary switches %lld, system CPU "
      "%.3f s\n",
      static_cast<long long>(minor_faults),
      static_cast<long long>(vol_switches), sys_cpu_s);
  return out;
}

Cluster::Cluster(int nranks, Machine machine)
    : Cluster(Topology::homogeneous(nranks, machine)) {}

Cluster::Cluster(Topology topo)
    : nranks_(topo.nranks()),
      topo_(std::move(topo)),
      machine_(topo_.machine()),
      ctx_(static_cast<size_t>(nranks_)) {
  CA_REQUIRE(nranks_ >= 1, "Cluster needs at least one rank, got %d", nranks_);
  inboxes_ = std::make_unique<detail::Inbox[]>(static_cast<size_t>(nranks_));
  rank_pools_ = std::make_unique<BufferPool[]>(static_cast<size_t>(nranks_));
}

Cluster::~Cluster() = default;

void Cluster::park(detail::WaitList& list, std::unique_lock<std::mutex>& lk) {
  detail::Fiber* f = detail::current_fiber();
  CA_ASSERT(f != nullptr && f->sched == fiber_sched_.get());
  list.push(f);
  // The resume only happens after a waker took us off `list`.
  fiber_sched_->park_current(lk);
}

std::unique_lock<std::mutex> Cluster::lock_mu() {
  return detail::lock_counted(mu_, LockClass::kCluster);
}

std::unique_lock<std::mutex> Cluster::lock_inbox(int world_rank) {
  return detail::lock_counted(inbox(world_rank).mu, LockClass::kInbox);
}

void Cluster::wake_all_fibers_locked() {
  // Snapshot under the leaf lock, then take each communicator's lock on its
  // own: a split registers its children under the parent's lock.
  std::vector<std::shared_ptr<detail::CommState>> live;
  {
    std::lock_guard<std::mutex> g(leaf_mu_);
    for (const std::weak_ptr<detail::CommState>& w : comms_)
      if (std::shared_ptr<detail::CommState> st = w.lock())
        live.push_back(std::move(st));
  }
  for (const std::shared_ptr<detail::CommState>& st : live) {
    std::unique_lock<std::mutex> lk = st->lock();
    st->wake_coll();
  }
  for (int r = 0; r < nranks_; ++r) {
    std::unique_lock<std::mutex> lk = lock_inbox(r);
    for (detail::ChannelSlot& s : inbox(r).slots)
      fiber_sched_->wake_all(s.waiters);
  }
}

void Cluster::request_abort_locked(int world_rank, const std::string& what) {
  if (world_rank >= 0 && !rank_failed_[static_cast<size_t>(world_rank)]) {
    rank_failed_[static_cast<size_t>(world_rank)] = 1;
    rank_errors_[static_cast<size_t>(world_rank)] = what;
  }
  // Set before any wait list's lock is taken below: a waiter checks the
  // flag under its list's lock, so it either sees the flag or is already on
  // the list when the sweep gets there.
  abort_requested_.store(true, std::memory_order_release);
  // Every parked fiber must re-check its predicate, see the abort, and
  // unwind — targeted wake-ups alone would leave unrelated waits parked
  // forever.
  wake_all_fibers_locked();
}

void Cluster::fault_point(RankCtx* ctx) {
  ctx->comm_ops++;
  for (const FaultPlan::KillRank& k : faults_.kills)
    if (k.rank == ctx->world_rank && k.at_op == ctx->comm_ops)
      throw Error(strprintf(
          "fault injection: rank %d killed at its comm op %lld", k.rank,
          static_cast<long long>(k.at_op)));
}

void Cluster::maybe_flip_payload_locked(int src, int dst, int tag, void* buf,
                                        i64 bytes) {
  if (faults_.flips.empty() || bytes <= 0) return;
  const int match = ++inbox(dst).flip_matches[{src, tag}];
  for (const FaultPlan::FlipPayload& f : faults_.flips)
    if (f.src == src && f.dst == dst && f.tag == tag && f.nth_match == match &&
        f.offset >= 0 && f.offset < bytes)
      static_cast<unsigned char*>(buf)[f.offset] ^= f.mask;
}

void Cluster::note_degraded(int node) {
  std::lock_guard<std::mutex> g(leaf_mu_);
  for (int n : degraded_nodes_)
    if (n == node) return;
  degraded_nodes_.insert(
      std::upper_bound(degraded_nodes_.begin(), degraded_nodes_.end(), node),
      node);
}

void Cluster::register_comm(const std::shared_ptr<detail::CommState>& st) {
  std::lock_guard<std::mutex> g(leaf_mu_);
  if (comms_.size() >= comms_prune_at_) {
    std::erase_if(comms_, [](const auto& w) { return w.expired(); });
    comms_prune_at_ = std::max<std::size_t>(64, 2 * comms_.size());
  }
  comms_.push_back(st);
}

std::vector<int> Cluster::failed_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < nranks_; ++r)
    if (rank_failed_[static_cast<size_t>(r)]) out.push_back(r);
  return out;
}

const std::string& Cluster::rank_error(int rank) const {
  CA_ASSERT(rank >= 0 && rank < nranks_);
  return rank_errors_[static_cast<size_t>(rank)];
}

std::vector<int> Cluster::degraded_nodes() const { return degraded_nodes_; }

std::string Cluster::wait_for_table() const {
  std::string out = "wait-for table (rank / state / comm / peer / tag / vtime):\n";
  for (int r = 0; r < nranks_; ++r) {
    const RankCtx& c = ctx_[static_cast<size_t>(r)];
    if (c.finished) {
      out += strprintf("  rank %3d  finished                      vtime=%.9g\n",
                       r, c.clock);
    } else if (c.blocked_op != nullptr) {
      out += strprintf(
          "  rank %3d  blocked in %-14s comm=%llu peer=%d tag=%d vtime=%.9g\n",
          r, c.blocked_op, static_cast<unsigned long long>(c.blocked_comm),
          c.blocked_peer, c.blocked_tag, c.clock);
    } else {
      // Blocked in the OS: it counts as running, and its clock is live.
      out += strprintf("  rank %3d  running\n", r);
    }
  }
  return out;
}

void Cluster::run(const std::function<void(Comm&)>& rank_main) {
  // Fresh per-rank state for every run.
  for (int r = 0; r < nranks_; ++r) {
    ctx_[r] = RankCtx{};
    ctx_[r].world_rank = r;
    ctx_[r].machine = &topo_.machine_of_rank(r);
    ctx_[r].trace_enabled = trace_cfg_.enabled;
    ctx_[r].trace_markers = trace_cfg_.enabled && trace_cfg_.markers;
    ctx_[r].pool = &rank_pools_[r];
    rank_pools_[r].begin_use();
    for (const FaultPlan::StraggleNode& s : faults_.stragglers)
      if (s.node == topo_.node_of_rank(r))
        ctx_[r].slowdown *= s.factor;
  }
  rank_errors_.assign(static_cast<size_t>(nranks_), {});
  rank_failed_.assign(static_cast<size_t>(nranks_), 0);
  degraded_nodes_.clear();
  deadlock_report_.clear();
  abort_requested_.store(false, std::memory_order_relaxed);
  finished_count_ = 0;
  // This thread counts into its own block during the run (spawn, the
  // deadlock abort); keep whatever it held before, in case it is a worker
  // of an enclosing run.
  const HostProfile outer = std::exchange(detail::host_counters(), {});
  const detail::ThreadUsage usage0 = detail::ThreadUsage::now();
  // Block counters are lifetime totals; the run's share is the difference.
  const auto pool_totals = [this] {
    PoolStats t;
    for (int r = 0; r < nranks_; ++r) {
      const PoolStats& ps = rank_pools_[r].stats();
      t.hits += ps.hits;
      t.misses += ps.misses;
    }
    return t;
  };
  const PoolStats pool0 = pool_totals();

  std::vector<int> members(static_cast<size_t>(nranks_));
  std::iota(members.begin(), members.end(), 0);
  auto world = detail::CommState::create(this, std::move(members));

  // The scheduler and its fiber stacks persist across runs; a changed
  // stack size or worker count rebuilds them.
  const std::size_t stack =
      fiber_stack_bytes_ != 0 ? fiber_stack_bytes_ : std::size_t{1} << 20;
  if (!fiber_sched_ || !fiber_sched_->built_for(fiber_workers_, stack))
    fiber_sched_ =
        std::make_unique<detail::FiberScheduler>(nranks_, fiber_workers_, stack);
  detail::FiberScheduler& sched = *fiber_sched_;
  try {
    for (int r = 0; r < nranks_; ++r)
      sched.spawn(r, [this, r, &rank_main, &world] {
        rank_body(r, rank_main, world);
      });
  } catch (...) {
    fiber_sched_.reset();  // part-spawned: no worker ever ran it
    throw;
  }
  sched.start();

  // Only a running fiber can wake a parked one, so an idle scheduler with
  // an unfinished rank is a deadlock, exactly: every live rank is parked
  // and none ever will be woken. Abort it with the wait-for table; the
  // abort wakes every fiber, and they unwind.
  while (!sched.wait_finished_or_idle()) {
    std::unique_lock<std::mutex> lk = lock_mu();
    deadlock_report_ = strprintf(
        "deadlock detected: all %d live ranks blocked with no progress\n%s",
        nranks_ - finished_count_, wait_for_table().c_str());
    std::fprintf(stderr, "[simmpi watchdog] %s", deadlock_report_.c_str());
    request_abort_locked(-1, deadlock_report_);
  }
  sched.shutdown();
  detail::add_usage_since(detail::host_counters(), usage0);
  host_prof_ = std::exchange(detail::host_counters(), outer);
  sched.take_counters(host_prof_);
  const PoolStats pool1 = pool_totals();
  host_prof_.pool_hits = pool1.hits - pool0.hits;
  host_prof_.pool_misses = pool1.misses - pool0.misses;

  // Pending sends, posted recvs and wait lists point into (already
  // unwound) rank stacks; every rank cleared its own on the way out. The
  // slots are dropped anyway so a future bug cannot leak into the next run.
  for (int r = 0; r < nranks_; ++r) {
    inbox(r).slots.clear();
    inbox(r).flip_matches.clear();
  }

  // Finalize stats for every rank before reporting failures: a failed run
  // still leaves per-rank virtual times readable for diagnostics.
  for (int r = 0; r < nranks_; ++r) ctx_[r].stats.vtime = ctx_[r].clock;

  if (!deadlock_report_.empty()) throw Error(deadlock_report_);

  int nfailed = 0;
  for (int r = 0; r < nranks_; ++r)
    if (rank_failed_[static_cast<size_t>(r)]) nfailed++;
  if (nfailed == 0) return;
  std::string msg;
  if (nfailed > 1) msg = strprintf("%d ranks failed — ", nfailed);
  bool first = true;
  for (int r = 0; r < nranks_; ++r) {
    if (!rank_failed_[static_cast<size_t>(r)]) continue;
    if (!first) msg += "; ";
    first = false;
    msg += strprintf("rank %d failed: %s", r,
                     rank_errors_[static_cast<size_t>(r)].c_str());
  }
  throw Error(msg);
}

void Cluster::rank_body(int rank, const std::function<void(Comm&)>& rank_main,
                        const std::shared_ptr<detail::CommState>& world) {
  // The scheduler saves/restores the rank-context thread-local around
  // every switch, so it follows the fiber across workers.
  detail::swap_rank_tls(&ctx_[static_cast<size_t>(rank)]);
  try {
    Comm c(world, rank);
    rank_main(c);
  } catch (const detail::ClusterAborted&) {
    // Unwound cooperatively after a peer failure — not this rank's fault.
  } catch (const std::exception& e) {
    std::unique_lock<std::mutex> lk = lock_mu();
    request_abort_locked(rank, e.what());
  } catch (...) {
    std::unique_lock<std::mutex> lk = lock_mu();
    request_abort_locked(rank, "unknown exception");
  }
  {
    std::unique_lock<std::mutex> lk = lock_mu();
    ctx_[static_cast<size_t>(rank)].finished = true;
    finished_count_++;
  }
  detail::swap_rank_tls(nullptr);
}

const RankStats& Cluster::stats(int rank) const {
  CA_ASSERT(rank >= 0 && rank < nranks_);
  return ctx_[static_cast<size_t>(rank)].stats;
}

const std::vector<TraceRecord>& Cluster::trace(int rank) const {
  CA_ASSERT(rank >= 0 && rank < nranks_);
  return ctx_[static_cast<size_t>(rank)].trace;
}

void Cluster::write_chrome_trace(const std::string& path) const {
  CA_REQUIRE(trace_cfg_.enabled,
             "write_chrome_trace needs set_trace(true) before run()");
  write_chrome_trace_file(*this, path);
}

RankStats Cluster::aggregate_stats() const {
  return fold_rank_stats(nranks_, [&](int r) -> const RankStats& {
    return ctx_[static_cast<size_t>(r)].stats;
  });
}

namespace detail {

std::shared_ptr<CommState> CommState::create(Cluster* cl,
                                             std::vector<int> members) {
  auto st = std::make_shared<CommState>();
  st->cluster = cl;
  st->members = std::move(members);
  st->id = cl->next_comm_id_.fetch_add(1, std::memory_order_relaxed);
  st->pricing = GroupPricing(cl->topo_, st->members, cl->coll_config_);
  st->slots.resize(st->members.size());
  cl->register_comm(st);
  return st;
}

}  // namespace detail

}  // namespace ca3dmm::simmpi
