#include "simmpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "simmpi/detail_state.hpp"

namespace ca3dmm::simmpi {

using detail::ChannelSlot;
using detail::ClusterAborted;
using detail::coll_op_name;
using detail::CommState;
using detail::SendRec;
using detail::SlotKey;

namespace {

/// Marks the calling rank blocked, for the deadlock report's wait-for
/// table, for the lifetime of the scope. The report reads the fields only
/// while the scheduler is idle, i.e. while this rank is parked inside the
/// scope.
class BlockedScope {
 public:
  BlockedScope(RankCtx* ctx, const char* op, std::uint64_t comm, int peer,
               int tag)
      : ctx_(ctx) {
    ctx_->blocked_op = op;
    ctx_->blocked_comm = comm;
    ctx_->blocked_peer = peer;
    ctx_->blocked_tag = tag;
  }
  ~BlockedScope() { ctx_->blocked_op = nullptr; }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  RankCtx* ctx_;
};

/// The entry `list` (sorted by peer) holds for `peer`, or null.
const PeerBlock* find_peer(std::span<const PeerBlock> list, int peer) {
  const auto it = std::lower_bound(
      list.begin(), list.end(), peer,
      [](const PeerBlock& b, int p) { return b.peer < p; });
  return it != list.end() && it->peer == peer ? &*it : nullptr;
}

i64 listed_bytes(std::span<const PeerBlock> list, int peer) {
  const PeerBlock* b = find_peer(list, peer);
  return b ? b->bytes : 0;
}

/// A (src, dst) pair whose alltoallv send count differs from the count dst
/// expects from src.
struct A2aMismatch {
  int src = 0, dst = 0;
  i64 sent = 0, expected = 0;
};

/// The first mismatched pair in (src, dst) order over a complete alltoallv
/// rendezvous, or nullopt. Every nonzero send is looked up in its peer's
/// receive list; if all match and both sides list equally many nonzero
/// entries, every receive is matched too. O(entries * log entries).
std::optional<A2aMismatch> alltoallv_mismatch(const CommState& st) {
  const auto& sl = st.slots;
  const auto slot = [&](int r) -> const CommState::Slot& {
    return sl[static_cast<size_t>(r)];
  };
  const int p = static_cast<int>(sl.size());
  std::optional<A2aMismatch> first;
  size_t nsends = 0, nrecvs = 0;
  for (int src = 0; src < p; ++src)
    for (const PeerBlock& b : slot(src).sends) {
      if (b.bytes == 0) continue;
      ++nsends;
      if (!first && listed_bytes(slot(b.peer).recvs, src) != b.bytes)
        first = A2aMismatch{src, b.peer};
    }
  for (int dst = 0; dst < p; ++dst)
    for (const PeerBlock& b : slot(dst).recvs) nrecvs += b.bytes != 0;
  if (!first && nsends == nrecvs) return std::nullopt;
  // Some receive may have no matching send: look for an earlier pair there.
  const auto before_first = [&](int src, int dst) {
    return !first || std::pair(src, dst) < std::pair(first->src, first->dst);
  };
  for (int dst = 0; dst < p; ++dst)
    for (const PeerBlock& b : slot(dst).recvs)
      if (b.bytes != 0 && listed_bytes(slot(b.peer).sends, dst) != b.bytes &&
          before_first(b.peer, dst))
        first = A2aMismatch{b.peer, dst};
  first->sent = listed_bytes(slot(first->src).sends, first->dst);
  first->expected = listed_bytes(slot(first->dst).recvs, first->src);
  return first;
}

/// The cross-member argument rules of a complete rendezvous: every member
/// posted the same root, sizes, counts vector and dtype, no count is
/// negative, and each alltoallv send matches its peer's receive. Rules about
/// a rank's own arguments are checked at its call. Returns an error message,
/// or "" when the collective is consistent. Runs on the last arriver with
/// the rendezvous lock held, before any data movement, so a posting error
/// never touches a peer's buffer.
std::string validate_collective(const CommState& st, CommState::Op op) {
  const int p = static_cast<int>(st.members.size());
  const CommState::Slot& s0 = st.slots[0];
  switch (op) {
    case CommState::Op::kBcast:
      for (int j = 1; j < p; ++j) {
        const auto& sj = st.slots[static_cast<size_t>(j)];
        if (sj.i0 != s0.i0)
          return strprintf("bcast root mismatch: rank 0 posted root %d, "
                           "rank %d posted root %d", s0.i0, j, sj.i0);
        if (sj.n0 != s0.n0)
          return strprintf("bcast size mismatch: rank 0 posted %lld bytes, "
                           "rank %d posted %lld",
                           static_cast<long long>(s0.n0), j,
                           static_cast<long long>(sj.n0));
      }
      break;
    case CommState::Op::kAllgather:
      for (int j = 1; j < p; ++j)
        if (st.slots[static_cast<size_t>(j)].n0 != s0.n0)
          return strprintf("allgather size mismatch: rank 0 posted %lld "
                           "bytes, rank %d posted %lld",
                           static_cast<long long>(s0.n0), j,
                           static_cast<long long>(
                               st.slots[static_cast<size_t>(j)].n0));
      break;
    case CommState::Op::kAllgatherv:
    case CommState::Op::kReduceScatter: {
      // Each call checked its vector's length and, for allgatherv, its own
      // entry against my_bytes; equal vectors make those hold for all.
      const char* name = coll_op_name(op);
      for (int j = 1; j < p; ++j) {
        const auto& sj = st.slots[static_cast<size_t>(j)];
        if (!std::ranges::equal(sj.v0, s0.v0))
          return strprintf("%s counts mismatch between rank 0 and rank %d",
                           name, j);
        if (sj.dt != s0.dt)  // allgatherv posts no dtype: always equal
          return strprintf("%s dtype mismatch between rank 0 and rank %d",
                           name, j);
      }
      for (int j = 0; j < p; ++j)
        if (s0.v0[static_cast<size_t>(j)] < 0)
          return strprintf("%s: counts[%d]=%lld is negative", name, j,
                           static_cast<long long>(
                               s0.v0[static_cast<size_t>(j)]));
      break;
    }
    case CommState::Op::kAllreduce:
      for (int j = 1; j < p; ++j) {
        const auto& sj = st.slots[static_cast<size_t>(j)];
        if (sj.n0 != s0.n0)
          return strprintf("allreduce count mismatch: rank 0 posted %lld, "
                           "rank %d posted %lld",
                           static_cast<long long>(s0.n0), j,
                           static_cast<long long>(sj.n0));
        if (sj.dt != s0.dt)
          return strprintf("allreduce dtype mismatch between rank 0 and "
                           "rank %d", j);
      }
      break;
    case CommState::Op::kAlltoallv:
      if (const auto mm = alltoallv_mismatch(st))
        return strprintf("alltoallv count mismatch: rank %d sends %lld "
                         "bytes to rank %d, which expects %lld", mm->src,
                         static_cast<long long>(mm->sent), mm->dst,
                         static_cast<long long>(mm->expected));
      break;
    case CommState::Op::kBarrier:
    case CommState::Op::kSplit:
    case CommState::Op::kNone:
      break;
  }
  return "";
}

/// Logical payload bytes one member of a collective contributes / receives
/// (its own block vs. everyone else's blocks — schedule-independent, unlike
/// the bytes a particular algorithm moves). Accounted into RankStats per
/// phase and carried into trace records.
struct CollIo {
  double out = 0;
  double in = 0;
};

/// Generic collective rendezvous, under the communicator's own lock. Every
/// member stores its arguments into its slot. The last rank to arrive
/// cross-checks them (validate_collective), runs `perform` (the st.pricing
/// cost; split also forms its groups and hands each member its result
/// there), then `deliver(st, d)` for every member d in order, which moves
/// the bytes member d receives. Only then does it publish the completion
/// state and wake the group, so each member parks once, and when it
/// returns — and may reuse or free its buffers — no peer touches them any
/// more. The parked members' buffers are stable while the last arriver
/// reads and writes them. Reductions always sum in member order, so results
/// do not depend on which rank arrives last.
///
/// Failure handling: an in-flight cluster abort unwinds the wait via
/// ClusterAborted; a mismatched op raises Error on the offending rank
/// (peers unwind through the abort the failure triggers); a failed
/// consistency check or straggler reclassification is stored in
/// st.coll_error — tagged with the generation so no cross-rendezvous read is
/// possible — no bytes move, and every member raises the same Error.
template <class Fill, class Perform, class Deliver>
void run_collective(CommState& st, int me, CommState::Op op, CollIo io,
                    Fill&& fill, Perform&& perform, Deliver&& deliver) {
  RankCtx* ctx = current_ctx();
  CA_ASSERT(ctx != nullptr);
  const int p = static_cast<int>(st.members.size());
  if (p <= 1) io = CollIo{};  // single-member groups move nothing

  CollExit exit;
  CollCost coll_cost;
  double coll_t0 = 0;
  int crit_world = -1;
  std::string err;
  {
    std::unique_lock<std::mutex> lk = st.lock();
    if (st.aborted()) throw ClusterAborted{};
    st.fault_point(ctx);  // deterministic rank-kill injection point
    CommState::Slot& slot = st.slots[static_cast<size_t>(me)];
    slot = CommState::Slot{};
    fill(slot);
    slot.t_entry = ctx->clock;
    if (st.arrived == 0) {
      st.op = op;
    } else if (st.op != op) {
      throw Error(strprintf(
          "mismatched collective on comm %llu: rank %d (world %d) posted %s "
          "while the in-flight operation is %s",
          static_cast<unsigned long long>(st.id), me,
          st.members[static_cast<size_t>(me)], coll_op_name(op),
          coll_op_name(st.op)));
    }
    const std::uint64_t gen = st.generation.load(std::memory_order_relaxed);
    st.arrived++;
    if (st.arrived == p) {
      double t0 = 0;
      int crit = 0;  // last arriver by virtual time; ties -> lowest index
      for (int j = 0; j < p; ++j) {
        const double te = st.slots[static_cast<size_t>(j)].t_entry;
        if (te > t0) {
          t0 = te;
          crit = j;
        }
      }
      CollCost cost;
      std::string e;
      // Straggler reclassification (see StragglerPolicy): compare the last
      // arriver against the latest rank of any *other* node, so a whole
      // slow node cannot mask itself behind a same-node peer. Runs before
      // the consistency check so a degraded node aborts the rendezvous the
      // same way an argument error would — raised on every member.
      const StragglerPolicy& sp = st.straggler_policy();
      if (sp.enabled && p >= 2) {
        const Topology& topo = st.topology();
        const int crit_world = st.members[static_cast<size_t>(crit)];
        const int crit_node = topo.node_of_rank(crit_world);
        double t_other = -1.0;
        for (int j = 0; j < p; ++j) {
          if (topo.node_of_rank(st.members[static_cast<size_t>(j)]) ==
              crit_node)
            continue;
          t_other =
              std::max(t_other, st.slots[static_cast<size_t>(j)].t_entry);
        }
        if (t_other >= 0 && t0 - t_other >= sp.min_lag_s &&
            t0 > sp.degrade_factor * t_other) {
          st.note_degraded(crit_node);
          e = strprintf(
              "straggler policy: rank %d (node %d) reached the %s on comm "
              "%llu at t=%.9g s while the latest rank of any other node "
              "arrived at t=%.9g s (degrade factor %.3g, min lag %.3g s); "
              "node %d reclassified as degraded",
              crit_world, crit_node, coll_op_name(op),
              static_cast<unsigned long long>(st.id), t0, t_other,
              sp.degrade_factor, sp.min_lag_s, crit_node);
        }
      }
      if (e.empty()) e = validate_collective(st, op);
      if (e.empty()) {
        cost = perform(st);
        for (int d = 0; d < p; ++d) deliver(st, d);
      }
      st.coll_error = e;
      st.coll_error_gen = gen;
      st.coll_exit = collective_exit(t0, cost, p);
      st.coll_cost = cost;
      st.coll_t0 = t0;
      st.coll_crit_world = st.members[static_cast<size_t>(crit)];
      st.arrived = 0;
      st.op = CommState::Op::kNone;
      st.generation.store(gen + 1, std::memory_order_release);
      st.wake_coll();
      lk.unlock();
    } else {
      BlockedScope bs(ctx, coll_op_name(op), st.id, st.arrived, -1);
      const auto done = [&] {
        return st.generation.load(std::memory_order_acquire) != gen;
      };
      st.coll_wait(lk, [&] { return done() || st.aborted(); });
      if (!done()) throw ClusterAborted{};
    }
    // Snapshot the completion state, without the lock: the last arriver
    // wrote it before bumping the generation, and the next rendezvous on
    // this comm rewrites it only after every member arrives there. Locals
    // keep this code independent of that.
    exit = st.coll_exit;
    coll_cost = st.coll_cost;
    coll_t0 = st.coll_t0;
    crit_world = st.coll_crit_world;
    if (st.coll_error_gen == gen && !st.coll_error.empty())
      err = st.coll_error;
  }

  if (!err.empty()) throw Error(err);
  CA_ASSERT(exit.t - ctx->clock >= -1e-12);
  const double entry = ctx->clock;
  const double adv = ctx->leave_collective(ctx->cur_phase, exit);
  ctx->last_op_cost = adv;
  if (ctx->trace_enabled) {
    TraceRecord r;
    r.kind = TraceKind::kCollective;
    r.phase = ctx->cur_phase;
    r.t0 = entry;
    r.t1 = entry + adv;
    r.name = coll_op_name(op);
    r.algo = coll_cost.algo;
    r.bytes_out = io.out;
    r.bytes_in = io.in;
    r.inter_bytes = exit.inter_share;
    r.comm_id = st.id;
    r.comm_size = p;
    if (crit_world != ctx->world_rank) {
      r.dep_rank = crit_world;
      r.t_dep = coll_t0;
    }
    ctx->trace.push_back(r);
  }
  const int ph = static_cast<int>(ctx->cur_phase);
  ctx->stats.bytes_sent_s[ph] += io.out;
  ctx->stats.bytes_recvd_s[ph] += io.in;
}

struct NoDelivery {
  void operator()(CommState&, int) const {}
};

/// Element-wise sum of `n` elements from `src` into `dst`.
void reduce_sum_into(void* dst, const void* src, i64 n, Dtype d) {
  if (d == Dtype::kF64) {
    double* a = static_cast<double*>(dst);
    const double* b = static_cast<const double*>(src);
    for (i64 i = 0; i < n; ++i) a[i] += b[i];
  } else {
    float* a = static_cast<float*>(dst);
    const float* b = static_cast<const float*>(src);
    for (i64 i = 0; i < n; ++i) a[i] += b[i];
  }
}

}  // namespace

int Comm::rank() const { return my_index_; }

std::uint64_t Comm::id() const { return state_ ? state_->id : 0; }

int Comm::size() const {
  return static_cast<int>(state_->members.size());
}

int Comm::world_rank_of(int r) const {
  CA_ASSERT(r >= 0 && r < size());
  return state_->members[static_cast<size_t>(r)];
}

bool Comm::same_node(int other) const {
  const Topology& t = state_->topology();
  return t.node_of_rank(world_rank()) == t.node_of_rank(world_rank_of(other));
}

const Machine& Comm::machine() const { return state_->cluster->machine_; }

const Machine& Comm::my_machine() const {
  if (RankCtx* ctx = current_ctx(); ctx != nullptr && ctx->machine != nullptr)
    return *ctx->machine;
  return machine();
}

const Topology& Comm::topology() const { return state_->topology(); }


const GroupProfile& Comm::profile() const { return state_->pricing.prof; }

double Comm::now() const { return current_ctx()->clock; }

double Comm::last_op_cost() const { return current_ctx()->last_op_cost; }

void Comm::set_phase(Phase p) { current_ctx()->cur_phase = p; }

Phase Comm::phase() const { return current_ctx()->cur_phase; }

void Comm::charge_compute(double flops, double bytes, double overlap_budget) {
  RankCtx* ctx = current_ctx();
  const double t0 = ctx->clock;
  const double adv = ctx->charge_compute(my_machine(), flops, bytes,
                                         overlap_budget, ctx->slowdown);
  if (!ctx->trace_enabled) return;
  TraceRecord r;
  r.kind = TraceKind::kCompute;
  r.phase = Phase::kCompute;
  r.t0 = t0;
  r.t1 = t0 + adv;
  r.name = "gemm";
  r.flops = flops;
  ctx->trace.push_back(r);
}

void Comm::charge_local_work(double bytes, const char* name) {
  if (bytes <= 0) return;
  RankCtx* ctx = current_ctx();
  const double t = local_work_time(my_machine(), bytes, ctx->slowdown);
  if (ctx->trace_enabled) {
    TraceRecord r;
    r.kind = TraceKind::kCompute;
    r.phase = ctx->cur_phase;
    r.t0 = ctx->clock;
    r.t1 = ctx->clock + t;
    r.name = name;
    ctx->trace.push_back(r);
  }
  ctx->charge(ctx->cur_phase, t);
}

// ---------------- collectives ----------------

void Comm::set_collective_config(const CollectiveConfig& cfg) {
  std::unique_lock<std::mutex> lk = state_->lock();
  state_->pricing.cfg = cfg;
}

CollectiveConfig Comm::collective_config() const {
  std::unique_lock<std::mutex> lk = state_->lock();
  return state_->pricing.cfg;
}

void Comm::barrier() {
  run_collective(
      *state_, my_index_, CommState::Op::kBarrier, CollIo{},
      [](CommState::Slot&) {},
      [](CommState& st) { return st.pricing.barrier(); },
      NoDelivery{});
}

void Comm::bcast_bytes(void* buf, i64 bytes, int root) {
  CA_REQUIRE(root >= 0 && root < size(), "bcast root %d out of range [0,%d)",
             root, size());
  CA_REQUIRE(bytes >= 0, "bcast of negative size %lld",
             static_cast<long long>(bytes));
  CollIo io;
  if (my_index_ == root)
    io.out = static_cast<double>(bytes);
  else
    io.in = static_cast<double>(bytes);
  run_collective(
      *state_, my_index_, CommState::Op::kBcast, io,
      [&](CommState::Slot& s) {
        s.rbuf = buf;
        s.n0 = bytes;
        s.i0 = root;
      },
      [&](CommState& st) {
        return st.pricing.bcast(static_cast<double>(bytes));
      },
      // Copies the root's buffer into destination d; the root buffer itself
      // is only read.
      [&](CommState& st, int d) {
        if (d == root || bytes <= 0) return;
        std::memcpy(st.slots[static_cast<size_t>(d)].rbuf,
                    st.slots[static_cast<size_t>(root)].rbuf,
                    static_cast<size_t>(bytes));
      });
}

void Comm::allgather_bytes(const void* sbuf, i64 bytes_each, void* rbuf) {
  CA_REQUIRE(bytes_each >= 0, "allgather of negative size %lld",
             static_cast<long long>(bytes_each));
  run_collective(
      *state_, my_index_, CommState::Op::kAllgather,
      CollIo{static_cast<double>(bytes_each),
             static_cast<double>(bytes_each) * (size() - 1)},
      [&](CommState::Slot& s) {
        s.sbuf = sbuf;
        s.rbuf = rbuf;
        s.n0 = bytes_each;
      },
      [&](CommState& st) {
        return st.pricing.allgather(static_cast<double>(bytes_each) * size());
      },
      // Assembles destination d's result buffer from every member's
      // contribution.
      [&](CommState& st, int d) {
        if (bytes_each <= 0) return;
        const int p = static_cast<int>(st.members.size());
        auto& sd = st.slots[static_cast<size_t>(d)];
        for (int j = 0; j < p; ++j)
          std::memcpy(static_cast<char*>(sd.rbuf) + j * bytes_each,
                      st.slots[static_cast<size_t>(j)].sbuf,
                      static_cast<size_t>(bytes_each));
      });
}

void Comm::allgatherv_bytes(const void* sbuf, i64 my_bytes, void* rbuf,
                            std::span<const i64> counts) {
  CA_REQUIRE(static_cast<int>(counts.size()) == size(),
             "allgatherv counts vector has %d entries, comm has %d ranks",
             static_cast<int>(counts.size()), size());
  CA_REQUIRE(counts[static_cast<size_t>(my_index_)] == my_bytes,
             "allgatherv: my_bytes=%lld but counts[%d]=%lld",
             static_cast<long long>(my_bytes), my_index_,
             static_cast<long long>(counts[static_cast<size_t>(my_index_)]));
  CollIo io;
  io.out = static_cast<double>(my_bytes);
  for (i64 c : counts) io.in += static_cast<double>(c);
  io.in -= static_cast<double>(my_bytes);
  run_collective(
      *state_, my_index_, CommState::Op::kAllgatherv, io,
      [&](CommState::Slot& s) {
        s.sbuf = sbuf;
        s.rbuf = rbuf;
        s.n0 = my_bytes;
        s.v0 = counts;
      },
      [&](CommState& st) {
        const int p = static_cast<int>(st.members.size());
        i64 total = 0;
        for (int j = 0; j < p; ++j) total += counts[static_cast<size_t>(j)];
        return st.pricing.allgather(static_cast<double>(total));
      },
      // Assembles destination d's result buffer. The counts vector is
      // identical on every member (MPI contract), so the last arriver's
      // copy is valid for any destination.
      [&](CommState& st, int d) {
        const int p = static_cast<int>(st.members.size());
        auto& sd = st.slots[static_cast<size_t>(d)];
        i64 off = 0;
        for (int j = 0; j < p; ++j) {
          const i64 nj = counts[static_cast<size_t>(j)];
          if (nj > 0)
            std::memcpy(static_cast<char*>(sd.rbuf) + off,
                        st.slots[static_cast<size_t>(j)].sbuf,
                        static_cast<size_t>(nj));
          off += nj;
        }
      });
}

void Comm::reduce_scatter_sum(const void* sbuf, void* rbuf,
                              std::span<const i64> counts, Dtype dtype,
                              bool custom_tree) {
  CA_REQUIRE(static_cast<int>(counts.size()) == size(),
             "reduce_scatter counts vector has %d entries, comm has %d ranks",
             static_cast<int>(counts.size()), size());
  CollIo io;
  {
    const double esize = static_cast<double>(dtype_size(dtype));
    for (i64 c : counts) io.out += static_cast<double>(c) * esize;
    io.in = static_cast<double>(counts[static_cast<size_t>(my_index_)]) * esize;
    io.out -= io.in;  // own segment never leaves this rank
  }
  run_collective(
      *state_, my_index_, CommState::Op::kReduceScatter, io,
      [&](CommState::Slot& s) {
        s.sbuf = sbuf;
        s.rbuf = rbuf;
        s.v0 = counts;
        s.dt = dtype;
      },
      [&](CommState& st) {
        i64 total = 0;
        for (i64 c : counts) total += c;
        return st.pricing.reduce_scatter(
            static_cast<double>(total * dtype_size(dtype)), custom_tree);
      },
      // Reduces segment d into destination d's buffer, accumulating in
      // member order (0, 1, ..., p-1).
      [&](CommState& st, int d) {
        const int p = static_cast<int>(st.members.size());
        const i64 esize = dtype_size(dtype);
        const i64 nd = counts[static_cast<size_t>(d)];
        if (nd <= 0) return;
        i64 off = 0;  // element offset of destination segment
        for (int j = 0; j < d; ++j) off += counts[static_cast<size_t>(j)];
        auto& sd = st.slots[static_cast<size_t>(d)];
        std::memcpy(sd.rbuf,
                    static_cast<const char*>(st.slots[0].sbuf) + off * esize,
                    static_cast<size_t>(nd * esize));
        for (int j = 1; j < p; ++j)
          reduce_sum_into(sd.rbuf,
                          static_cast<const char*>(
                              st.slots[static_cast<size_t>(j)].sbuf) +
                              off * esize,
                          nd, dtype);
      });
}

void Comm::allreduce_sum(const void* sbuf, void* rbuf, i64 count, Dtype dtype) {
  CA_REQUIRE(count >= 0, "allreduce of negative count %lld",
             static_cast<long long>(count));
  const double ar_bytes =
      static_cast<double>(count) * static_cast<double>(dtype_size(dtype));
  run_collective(
      *state_, my_index_, CommState::Op::kAllreduce,
      CollIo{ar_bytes, ar_bytes},
      [&](CommState::Slot& s) {
        s.sbuf = sbuf;
        s.rbuf = rbuf;
        s.n0 = count;
        s.dt = dtype;
      },
      [&](CommState& st) {
        return st.pricing.allreduce(
            static_cast<double>(count * dtype_size(dtype)));
      },
      // Allreduce delivers by element range, not by destination: call d
      // sums elements [d*count/p, (d+1)*count/p) over every member, in
      // member order, into member 0's buffer, and fans the range out to
      // every other member while it is still in cache.
      [&](CommState& st, int d) {
        if (count <= 0) return;
        const int p = static_cast<int>(st.members.size());
        const i64 esize = dtype_size(dtype);
        const i64 lo = count * d / p;
        const i64 hi = count * (d + 1) / p;
        const i64 n = hi - lo;
        if (n <= 0) return;
        auto& s0 = st.slots[0];
        char* acc = static_cast<char*>(s0.rbuf) + lo * esize;
        std::memcpy(acc, static_cast<const char*>(s0.sbuf) + lo * esize,
                    static_cast<size_t>(n * esize));
        for (int j = 1; j < p; ++j)
          reduce_sum_into(acc,
                          static_cast<const char*>(
                              st.slots[static_cast<size_t>(j)].sbuf) +
                              lo * esize,
                          n, dtype);
        for (int j = 1; j < p; ++j)
          std::memcpy(static_cast<char*>(
                          st.slots[static_cast<size_t>(j)].rbuf) +
                          lo * esize,
                      acc, static_cast<size_t>(n * esize));
      });
}

void Comm::alltoallv_bytes(const void* sbuf, std::span<const PeerBlock> sends,
                           void* rbuf, std::span<const PeerBlock> recvs) {
  const int p = size();
  CollIo io;
  for (const auto list : {sends, recvs}) {
    int prev = -1;
    for (const PeerBlock& b : list) {
      CA_REQUIRE(b.peer > prev && b.peer < p && b.bytes >= 0 && b.displ >= 0,
                 "alltoallv lists need strictly ascending peers in [0,%d) "
                 "and nonnegative bytes/displs (rank %d lists peer %d)",
                 p, my_index_, b.peer);
      prev = b.peer;
    }
  }
  for (const PeerBlock& b : sends)  // self-copies are not network traffic
    if (b.peer != my_index_) io.out += static_cast<double>(b.bytes);
  for (const PeerBlock& b : recvs)
    if (b.peer != my_index_) io.in += static_cast<double>(b.bytes);
  run_collective(
      *state_, my_index_, CommState::Op::kAlltoallv, io,
      [&](CommState::Slot& s) {
        s.sbuf = sbuf;
        s.rbuf = rbuf;
        s.sends = sends;
        s.recvs = recvs;
      },
      [&](CommState& st) {
        A2aVolume v;
        for (int src = 0; src < p; ++src) {
          const auto& ss = st.slots[static_cast<size_t>(src)];
          i64 sent = 0, recvd = 0;
          for (const PeerBlock& b : ss.sends)
            if (b.peer != src) sent += b.bytes;
          for (const PeerBlock& b : ss.recvs)
            if (b.peer != src) recvd += b.bytes;
          v.add(sent, recvd);
        }
        return st.pricing.alltoallv(v);
      },
      // Fills destination d's receive buffer from its sources.
      [&](CommState& st, int d) {
        const auto& sd = st.slots[static_cast<size_t>(d)];
        for (const PeerBlock& r : sd.recvs) {
          if (r.bytes == 0) continue;
          const auto& ss = st.slots[static_cast<size_t>(r.peer)];
          std::memcpy(static_cast<char*>(sd.rbuf) + r.displ,
                      static_cast<const char*>(ss.sbuf) +
                          find_peer(ss.sends, d)->displ,
                      static_cast<size_t>(r.bytes));
        }
      });
}

Comm Comm::split(int color, int key) const {
  CommState::SplitResult result{nullptr, -1};
  run_collective(
      *state_, my_index_, CommState::Op::kSplit, CollIo{},
      [&](CommState::Slot& s) {
        s.i0 = color;
        s.i1 = key;
        s.split_out = &result;
      },
      // Forms the groups and hands every member its result; a member with
      // a negative color keeps {nullptr, -1}.
      [&](CommState& st) {
        const int p = static_cast<int>(st.members.size());
        // Collect colors in ascending order; negative color = undefined.
        std::map<int, std::vector<int>> groups;  // color -> member indices
        for (int j = 0; j < p; ++j)
          if (st.slots[static_cast<size_t>(j)].i0 >= 0)
            groups[st.slots[static_cast<size_t>(j)].i0].push_back(j);
        for (auto& [c, idxs] : groups) {
          std::stable_sort(idxs.begin(), idxs.end(), [&](int a, int b) {
            return st.slots[static_cast<size_t>(a)].i1 <
                   st.slots[static_cast<size_t>(b)].i1;
          });
          std::vector<int> members;
          members.reserve(idxs.size());
          for (int j : idxs)
            members.push_back(st.members[static_cast<size_t>(j)]);
          auto ns = CommState::create(st.cluster, std::move(members));
          ns->pricing.cfg = st.pricing.cfg;  // children inherit it
          for (size_t i = 0; i < idxs.size(); ++i)
            *st.slots[static_cast<size_t>(idxs[i])].split_out = {
                ns, static_cast<int>(i)};
        }
        return st.pricing.split();
      },
      NoDelivery{});
  if (RankCtx* ctx = current_ctx()) ctx->stats.comm_splits++;
  if (!result.first) return Comm();
  return Comm(std::move(result.first), result.second);
}

// ---------------- point-to-point ----------------

bool Cluster::try_deliver_posted_locked(detail::ChannelSlot& slot, int dst,
                                        const void* buf, i64 bytes,
                                        double t_entry,
                                        detail::SendRec& sender_rec) {
  detail::RecvRec* rec = slot.posted;
  // Size mismatch: stay pending instead so the *receiver* raises the
  // posting error.
  if (rec == nullptr || rec->bytes != bytes) return false;
  slot.posted = nullptr;
  if (bytes > 0) std::memcpy(rec->buf, buf, static_cast<size_t>(bytes));
  detail::host_counters().zero_copy_bytes += bytes;
  const int src = slot.key.src;
  maybe_flip_payload_locked(src, dst, slot.key.tag, rec->buf, bytes);
  // The receiver's exit time, computed exactly as its own pull would.
  rec->t_exit = p2p_exit(topo_, src, dst, static_cast<double>(bytes),
                         rec->t_entry, t_entry, rec->slowdown);
  rec->sender_entry = t_entry;
  rec->filled = true;
  // The receiver is parked on this slot (it only posts while blocked), so
  // touching its stats here cannot race with its own writes.
  ctx_[static_cast<size_t>(dst)].stats.p2p_zero_copy++;
  sender_rec.consumed = true;
  sender_rec.t_exit = rec->t_exit;
  sender_rec.t_consumer_entry = rec->t_entry;
  fiber_sched_->wake_all(slot.waiters);
  return true;
}

void Comm::recv_impl(void* buf, i64 bytes, int src, int tag) {
  Cluster* cl = state_->cluster;
  RankCtx* ctx = current_ctx();
  const double entry = ctx->clock;
  const int me_w = world_rank();
  const SlotKey key{state_->id, world_rank_of(src), tag};
  double exit = 0;
  double sender_entry = 0;
  {
    detail::Inbox& ib = cl->inbox(me_w);
    std::unique_lock<std::mutex> lk = cl->lock_inbox(me_w);
    SendRec* rec = nullptr;
    // Posted-receive record: registered (on this stack frame) once the wait
    // finds no send pending, so the sender delivers straight into `buf`.
    // Unregistered on every exit path of the wait.
    detail::RecvRec posted;
    posted.buf = buf;
    posted.bytes = bytes;
    posted.t_entry = entry;
    posted.slowdown = ctx->slowdown;
    bool registered = false;
    {
      BlockedScope bs(ctx, "recv", state_->id, src, tag);
      // A delivered posted recv completes even when an abort raced in: the
      // payload is already in place and the exit time computed.
      while (!posted.filled && !cl->aborting()) {
        ChannelSlot& slot = ib.get(key);
        if (slot.pending != nullptr) {
          rec = slot.pending;
          break;
        }
        if (!registered) {
          slot.posted = &posted;
          registered = true;
        }
        cl->park(slot.waiters, lk);
        lk = cl->lock_inbox(me_w);
      }
    }
    if (registered && !posted.filled) {
      ChannelSlot* slot = ib.find(key);  // kept alive by the posted recv
      if (slot->posted == &posted) slot->posted = nullptr;
    }
    if (posted.filled) {
      // The sender already copied the payload, applied any fault-plan flip,
      // and computed this receiver's exit time with its slowdown.
      exit = posted.t_exit;
      sender_entry = posted.sender_entry;
    } else if (rec == nullptr) {
      ib.release(key);
      throw detail::ClusterAborted{};
    } else {
      // A size mismatch is a user-facing posting error: leave the record
      // pending (the sender's cleanup clears it) and let the Error flow
      // through the cooperative-abort path.
      CA_REQUIRE(rec->bytes == bytes,
                 "recv size mismatch on comm %llu (world %d -> %d, tag %d): "
                 "receiver posted %lld bytes, sender sent %lld",
                 static_cast<unsigned long long>(state_->id), key.src, me_w,
                 tag, static_cast<long long>(bytes),
                 static_cast<long long>(rec->bytes));
      ChannelSlot& slot = *ib.find(key);
      slot.pending = nullptr;
      // memmove: a sendrecv to itself may pass overlapping buffers.
      if (bytes > 0) std::memmove(buf, rec->buf, static_cast<size_t>(bytes));
      detail::host_counters().zero_copy_bytes += bytes;
      cl->maybe_flip_payload_locked(key.src, me_w, tag, buf, bytes);
      exit = p2p_exit(state_->topology(), key.src, me_w,
                      static_cast<double>(bytes), entry, rec->t_entry,
                      ctx->slowdown);
      sender_entry = rec->t_entry;
      rec->t_exit = exit;
      rec->t_consumer_entry = entry;
      rec->consumed = true;
      cl->fiber_sched_->wake_all(slot.waiters);
      ib.release(key);
    }
  }
  ctx->last_op_cost = exit - entry;
  if (ctx->trace_enabled) {
    TraceRecord r;
    r.kind = TraceKind::kP2pRecv;
    r.phase = ctx->cur_phase;
    r.t0 = entry;
    r.t1 = exit;
    r.name = "recv";
    r.bytes_in = static_cast<double>(bytes);
    r.peer = key.src;
    r.tag = tag;
    r.comm_id = state_->id;
    if (sender_entry > entry) {  // the sender's arrival bounded this recv
      r.dep_rank = key.src;
      r.t_dep = sender_entry;
    }
    ctx->trace.push_back(r);
  }
  ctx->advance_to(ctx->cur_phase, exit);
  ctx->stats.bytes_recvd_s[static_cast<int>(ctx->cur_phase)] +=
      static_cast<double>(bytes);
}

void Comm::sendrecv_bytes(const void* sbuf, i64 sbytes, int dst, void* rbuf,
                          i64 rbytes, int src, int tag) {
  CA_REQUIRE(sbytes >= 0 && rbytes >= 0, "sendrecv of negative size");
  CA_REQUIRE(dst >= 0 && dst < size() && src >= 0 && src < size(),
             "sendrecv peer out of range [0,%d)", size());
  Cluster* cl = state_->cluster;
  RankCtx* ctx = current_ctx();
  cl->fault_point(ctx);
  const double entry = ctx->clock;
  SendRec rec;
  rec.buf = sbuf;
  rec.bytes = sbytes;
  rec.t_entry = entry;
  const int dst_w = world_rank_of(dst);
  const SlotKey skey{state_->id, world_rank(), tag};
  detail::Inbox& ib = cl->inbox(dst_w);
  {
    std::unique_lock<std::mutex> lk = cl->lock_inbox(dst_w);
    cl->check_abort();
    ChannelSlot& slot = ib.get(skey);
    // The peer's recv is already posted: deliver in place — rec's
    // completion fields are filled as if the peer consumed it, and the wait
    // below returns immediately. Otherwise leave rec pending for the peer.
    if (cl->try_deliver_posted_locked(slot, dst_w, sbuf, sbytes, entry,
                                      rec)) {
      ib.release(skey);
    } else {
      CA_ASSERT(slot.pending == nullptr);
      slot.pending = &rec;
      cl->fiber_sched_->wake_all(slot.waiters);
    }
  }
  try {
    recv_impl(rbuf, rbytes, src, tag);
    std::unique_lock<std::mutex> lk = cl->lock_inbox(dst_w);
    {
      BlockedScope bs(ctx, "sendrecv-wait", state_->id, dst, tag);
      while (!rec.consumed && !cl->aborting()) {
        cl->park(ib.get(skey).waiters, lk);
        lk = cl->lock_inbox(dst_w);
      }
    }
    ib.release(skey);
    if (!rec.consumed) throw detail::ClusterAborted{};
  } catch (...) {
    // The pending send record points into this stack frame: clear it
    // before unwinding so no peer can touch a dangling pointer.
    std::unique_lock<std::mutex> lk = cl->lock_inbox(dst_w);
    ChannelSlot* slot = ib.find(skey);
    if (slot != nullptr && slot->pending == &rec) slot->pending = nullptr;
    ib.release(skey);
    throw;
  }
  if (rec.t_exit > ctx->clock) {
    if (ctx->trace_enabled) {
      // The recv half is already on the timeline; this extra interval is
      // the wait for the peer to consume our send.
      TraceRecord r;
      r.kind = TraceKind::kP2pWait;
      r.phase = ctx->cur_phase;
      r.t0 = ctx->clock;
      r.t1 = rec.t_exit;
      r.name = "sendrecv-wait";
      r.bytes_out = static_cast<double>(sbytes);
      r.peer = dst_w;
      r.tag = tag;
      r.comm_id = state_->id;
      r.dep_rank = dst_w;
      r.t_dep = rec.t_consumer_entry;
      ctx->trace.push_back(r);
    }
    ctx->advance_to(ctx->cur_phase, rec.t_exit);
  }
  ctx->stats.bytes_sent_s[static_cast<int>(ctx->cur_phase)] +=
      static_cast<double>(sbytes);
  ctx->last_op_cost = ctx->clock - entry;
}

}  // namespace ca3dmm::simmpi
