#include "costmodel/model.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "layout/redistribute.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm::costmodel {

using simmpi::CollAlgo;
using simmpi::CollCost;
using simmpi::GroupProfile;
using simmpi::Machine;
using simmpi::Phase;
using simmpi::Topology;

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kCa3dmm: return "CA3DMM";
    case Algo::kCa3dmmSumma: return "CA3DMM-S";
    case Algo::kCosma: return "COSMA";
    case Algo::kCarma: return "CARMA";
    case Algo::kCtf: return "CTF";
    case Algo::kSumma: return "SUMMA";
    case Algo::kP25d: return "2.5D";
  }
  return "?";
}

namespace {

constexpr int kPhases = static_cast<int>(Phase::kCount);
constexpr int kComputePhase = static_cast<int>(Phase::kCompute);

int phase_index(Phase p) {
  return static_cast<int>(p == kInheritPhase ? Phase::kMisc : p);
}

/// (color, key, child slot) of each member's post to one split.
using SplitArgs = std::vector<std::array<int, 3>>;

/// One communicator of the replay: membership, pricing, and the rendezvous
/// state a simmpi CommState keeps.
struct Group {
  std::vector<int> members;  ///< world ranks, in group-rank order
  GroupProfile prof;
  simmpi::LinkParams link;
  simmpi::CollectiveConfig cfg;
  int arrived = 0;  ///< members inside the in-flight collective
  double t0 = 0;    ///< their latest entry clock
  SplitArgs split;  ///< posts to the in-flight split
  /// Exchange entry clocks per member in program order (member i's n-th
  /// at xtimes[i * xstride + n]): ring peers run the same exchange
  /// sequence, so the n-th exchanges of two members match.
  std::vector<double> xtimes;
  std::vector<size_t> xcount;
  size_t xstride = 0;
};

struct CommRef {
  int group = -1;  ///< -1: not a member (color < 0)
  int index = 0;
};

/// Per-rank replay state: what RankCtx and TrackedBuffer keep.
struct RankSim {
  size_t pc = 0;  ///< next op, an index into the shared schedule
  double clock = 0, budget = 0, flops = 0;
  double phase[kPhases] = {};
  double inter[kPhases] = {};
  i64 cur = 0, peak = 0;
  i64 bytes[kSlotCount] = {};
  CommRef comm[kCommCount];
  bool arrived = false;  ///< parked in the op at pc (collective or exchange)
  bool queued = false;

  void charge(int ph, double s) {
    clock += s;
    phase[ph] += s;
  }
  void alloc(i64 b) {
    cur += b;
    peak = std::max(peak, cur);
  }
};

/// The replay's largest buffers, kept per thread: the tuner predicts
/// hundreds of candidates in a row. (predict never blocks, so a simmpi fiber
/// cannot migrate threads while it uses them.)
struct Arena {
  Schedule sched{8, /*with_data=*/false};
  std::vector<size_t> end;
  std::vector<RankSim> ranks;
  std::vector<Group> groups;  ///< reused objects; a replay counts its own
  std::vector<std::array<int, 4>> order;
  std::vector<int> ready;
};

/// Replays every rank's schedule with simmpi's clock rules.
class Replay {
 public:
  Replay(const Program& pg, const Topology& topo, bool warm, Arena& arena)
      : pg_(pg),
        topo_(topo),
        anchor_(topo.machine()),
        warm_(warm),
        esize_(pg.esize),
        sched_(arena.sched),
        end_(arena.end),
        ranks_(arena.ranks),
        groups_(arena.groups),
        order_(arena.order),
        ready_(arena.ready) {
    // Every rank's list, back to back in one schedule.
    const int P = pg.nranks();
    sched_.reset(pg.esize);
    end_.resize(static_cast<size_t>(P));
    ranks_.assign(static_cast<size_t>(P), RankSim{});
    ready_.clear();
    std::visit(
        [&](const auto& plan) {
          for (int r = 0; r < P; ++r) {
            ranks_[static_cast<size_t>(r)].pc = sched_.ops().size();
            sched_.next_rank();
            build_schedule(plan, r, anchor_, false, false, sched_);
            end_[static_cast<size_t>(r)] = sched_.ops().size();
          }
        },
        pg.plan);
    volumes_.reserve(kLayoutCount);
    Group& world = group(new_group(simmpi::CollectiveConfig{}));
    world.members.resize(static_cast<size_t>(P));
    std::iota(world.members.begin(), world.members.end(), 0);
    seal(world);
    for (size_t r = 0; r < ranks_.size(); ++r)
      ranks_[r].comm[kWorld] = CommRef{0, static_cast<int>(r)};
  }

  Prediction run() {
    for (int r = static_cast<int>(ranks_.size()) - 1; r >= 0; --r) wake(r);
    while (!ready_.empty()) {
      const int r = ready_.back();
      ready_.pop_back();
      ranks_[static_cast<size_t>(r)].queued = false;
      advance(r);
    }
    Prediction p;
    p.grid = pg_.grid();
    p.active = pg_.active();
    double lb_max = 0, lb_sum = 0;
    int lb_n = 0;
    for (size_t r = 0; r < ranks_.size(); ++r) {
      const RankSim& R = ranks_[r];
      CA_REQUIRE(R.pc == end_[r], "cost model replay deadlocked at rank %zu",
                 r);
      p.t_total = std::max(p.t_total, R.clock);
      for (int i = 0; i < kPhases; ++i) {
        p.phase_s[i] = std::max(p.phase_s[i], R.phase[i]);
        p.inter_bytes_s[i] += R.inter[i];
      }
      p.peak_bytes = std::max(p.peak_bytes, R.peak);
      p.flops_per_rank = std::max(p.flops_per_rank, R.flops);
      const double c = R.phase[kComputePhase];
      if (c > 0) {
        lb_max = std::max(lb_max, c);
        lb_sum += c;
        lb_n++;
      }
    }
    if (lb_n > 0 && lb_sum > 0) p.load_balance = lb_max * lb_n / lb_sum;
    return p;
  }

 private:
  /// What a redistribution's alltoallv moves and stages.
  struct Volume {
    Op::Redist key;
    RedistVolume v;
    double max_bytes = 0, off_self = 0;
  };

  Group& group(int id) { return groups_[static_cast<size_t>(id)]; }

  /// An empty group; the caller adds its members, then seals it.
  int new_group(const simmpi::CollectiveConfig& cfg) {
    if (ngroups_ == groups_.size()) groups_.emplace_back();
    Group& g = groups_[ngroups_];
    g.members.clear();
    g.cfg = cfg;
    g.arrived = 0;
    g.t0 = 0;
    g.split.clear();
    g.xtimes.clear();
    g.xcount.clear();
    g.xstride = 0;
    return static_cast<int>(ngroups_++);
  }

  /// CommState::create: exact node-multiset profile, anchor-machine link.
  void seal(Group& g) {
    g.prof = GroupProfile::from_topology(topo_, g.members);
    g.link = group_link(anchor_, g.prof);
  }

  void wake(int r) {
    RankSim& R = ranks_[static_cast<size_t>(r)];
    if (R.queued) return;
    R.queued = true;
    ready_.push_back(r);
  }

  /// Runs rank r until it blocks or finishes.
  void advance(int r) {
    RankSim& R = ranks_[static_cast<size_t>(r)];
    const Machine& mach = topo_.machine_of_rank(r);
    for (const size_t end = end_[static_cast<size_t>(r)]; R.pc < end; ++R.pc) {
      const Op& op = sched_.ops()[R.pc];
      const int ph = phase_index(op.phase);
      switch (op.kind) {
        case OpKind::kAlloc:
          R.bytes[op.buf.slot] = op.buf.elems * esize_;
          R.alloc(R.bytes[op.buf.slot]);
          break;
        case OpKind::kFree:
          R.cur -= R.bytes[op.buf.slot];
          R.bytes[op.buf.slot] = 0;
          break;
        case OpKind::kCopy:
        case OpKind::kMarker:
          break;
        case OpKind::kScan:
          local_work(R, ph, mach, op.scan.payload);
          break;
        case OpKind::kCompute: {  // Comm::charge_compute(_overlap_budget)
          const double t = mach.gemm_time(op.compute.flops, op.compute.bytes);
          R.flops += op.compute.flops;
          R.phase[kComputePhase] += t;
          if (!op.budget) {
            R.clock += t;
            break;
          }
          const double hidden =
              mach.use_gpu ? 0.0 : R.budget * mach.overlap_efficiency;
          R.clock += std::max(0.0, t - hidden);
          R.budget = 0;
          break;
        }
        case OpKind::kExchange:
          if (!exchange(r, op, ph)) return;
          break;
        case OpKind::kRedistribute:
          if (volume(op.redist).v.identity) {  // a local copy, no alltoallv
            local_work(R, ph, mach,
                       pg_.layouts[op.redist.from].local_size(r));
            break;
          }
          if (!collective(r, op)) return;
          break;
        case OpKind::kSplit:
        case OpKind::kAllgatherv:
        case OpKind::kReduceScatter:
        case OpKind::kBcast:
          if (!collective(r, op)) return;
          break;
      }
    }
  }

  /// Comm::charge_local_work: one scan of `elems` elements.
  void local_work(RankSim& R, int ph, const Machine& mach, i64 elems) const {
    const double bytes =
        static_cast<double>(elems) * static_cast<double>(esize_);
    if (bytes > 0) R.charge(ph, bytes / mach.intra_rank_bandwidth());
  }

  /// simmpi's run_collective: exit = max(entry clocks) + cost. The last
  /// member to arrive completes the collective for every member. A warm
  /// cacheable split (taken from PlanComms) meets at the same point, at no
  /// cost and without synchronizing clocks.
  bool collective(int r, const Op& op) {
    RankSim& R = ranks_[static_cast<size_t>(r)];
    const int slot = op.kind == OpKind::kRedistribute ? int{kWorld}
                     : op.kind == OpKind::kSplit      ? op.split.parent
                                                      : op.coll.comm;
    const CommRef ref = R.comm[slot];
    if (R.arrived) return false;
    CA_ASSERT(ref.group >= 0);
    R.arrived = true;
    Group& g = group(ref.group);
    if (op.kind == OpKind::kRedistribute) {  // its staging buffers
      const Volume& v = volume(op.redist);
      R.alloc(v.v.send_staging_bytes[static_cast<size_t>(r)]);
      R.alloc(v.v.recv_staging_bytes[static_cast<size_t>(r)]);
    } else if (op.kind == OpKind::kSplit) {
      if (g.split.empty()) g.split.resize(g.members.size());
      g.split[static_cast<size_t>(ref.index)] = {op.split.color, op.split.key,
                                                 op.split.child};
    } else if (op.coll.use_cfg && sched_.coll()) {
      g.cfg = *sched_.coll();
    }
    g.t0 = std::max(g.t0, R.clock);
    if (++g.arrived < static_cast<int>(g.members.size())) return false;
    complete(ref.group, op, r);
    return true;
  }

  /// Charges every member its wait plus the cost; the others resume at
  /// their next op, `last` (the rank that completed it) continues itself.
  void complete(int gid, const Op& op, int last) {
    const bool cached = warm_ && op.kind == OpKind::kSplit &&
                        op.split.cacheable;
    const CollCost cost = cached ? CollCost{} : price(group(gid), op);
    const double exit = group(gid).t0 + cost.t;
    const double share =
        cost.inter_bytes / static_cast<int>(group(gid).members.size());
    const int ph = phase_index(op.phase);
    if (op.kind == OpKind::kSplit) form_children(gid, group(gid).split);
    Group& g = group(gid);  // form_children may have grown groups_
    for (const int m : g.members) {
      RankSim& M = ranks_[static_cast<size_t>(m)];
      const double adv = cached ? 0.0 : std::max(0.0, exit - M.clock);
      M.charge(ph, adv);
      M.inter[ph] += share;
      if (op.budget) M.budget += adv;
      if (op.kind == OpKind::kRedistribute) {
        const Volume& v = volume(op.redist);
        M.cur -= v.v.send_staging_bytes[static_cast<size_t>(m)] +
                 v.v.recv_staging_bytes[static_cast<size_t>(m)];
      }
      M.arrived = false;
      if (m != last) {
        ++M.pc;
        wake(m);
      }
    }
    g.arrived = 0;
    g.t0 = 0;
    g.split.clear();
  }

  /// The cost function simmpi's collective of the same kind charges.
  CollCost price(const Group& g, const Op& op) {
    const int p = static_cast<int>(g.members.size());
    const auto pick = [&](CollAlgo configured, double bytes) {
      return resolve_coll_algo(configured, g.prof, bytes,
                               g.cfg.small_message_bytes);
    };
    i64 total = 0;
    if (op.kind == OpKind::kAllgatherv || op.kind == OpKind::kReduceScatter)
      for (const i64 c : sched_.counts(op)) total += c;
    double bytes = 0;
    switch (op.kind) {
      case OpKind::kRedistribute: {
        const Volume& v = volume(op.redist);
        CollCost c;
        c.t = t_alltoallv_machine(anchor_, g.link, v.max_bytes, p,
                                  g.prof.single_node);
        c.inter_bytes = v.off_self * group_inter_frac(g.prof);
        return c;
      }
      case OpKind::kSplit:  // one small word per rank, always the butterfly
        return coll_allgather_cost(anchor_, g.prof, g.link,
                                   CollAlgo::kPaperButterfly, 8.0 * p, p);
      case OpKind::kAllgatherv:
        bytes = static_cast<double>(total);
        return coll_allgather_cost(anchor_, g.prof, g.link,
                                   pick(g.cfg.allgather, bytes), bytes, p);
      case OpKind::kReduceScatter:
        bytes = static_cast<double>(total * esize_);
        return coll_reduce_scatter_cost(anchor_, g.prof, g.link,
                                        pick(g.cfg.reduce_scatter, bytes),
                                        bytes, p, op.coll.custom_tree);
      default:  // kBcast
        bytes = static_cast<double>(op.coll.elems * esize_);
        return coll_bcast_cost(anchor_, g.prof, g.link,
                               pick(g.cfg.bcast, bytes), bytes, p);
    }
  }

  /// Comm::split: ascending colors, members ordered by (key, parent rank);
  /// color < 0 gets no communicator. `args` is read before any group is
  /// added, so it may live in a group.
  void form_children(int gid, const SplitArgs& args) {
    order_.clear();  // (color, key, parent index, child slot)
    for (size_t i = 0; i < args.size(); ++i)
      order_.push_back(
          {args[i][0], args[i][1], static_cast<int>(i), args[i][2]});
    std::sort(order_.begin(), order_.end());
    const simmpi::CollectiveConfig cfg = group(gid).cfg;
    for (size_t lo = 0; lo < order_.size();) {
      const int color = order_[lo][0];
      size_t hi = lo;
      while (hi < order_.size() && order_[hi][0] == color) ++hi;
      const int id = color < 0 ? -1 : new_group(cfg);
      for (size_t i = lo; i < hi; ++i) {
        const int world = group(gid).members[static_cast<size_t>(order_[i][2])];
        ranks_[static_cast<size_t>(world)].comm[order_[i][3]] =
            CommRef{id, id < 0 ? 0 : static_cast<int>(i - lo)};
        if (id >= 0) group(id).members.push_back(world);
      }
      if (id >= 0) seal(group(id));
      lo = hi;
    }
  }

  /// Comm::sendrecv: the receive ends at max(entry, sender's entry) + p2p
  /// cost; the op then waits until the peer consumed the outgoing message
  /// (max(peer's entry, entry) + p2p cost).
  bool exchange(int r, const Op& op, int ph) {
    RankSim& R = ranks_[static_cast<size_t>(r)];
    const Op::Exchange& x = op.exchange;
    const CommRef ref = R.comm[x.comm];
    Group& g = group(ref.group);
    if (g.xcount.empty()) {
      // Every member runs as many exchanges on the group as this one has
      // left; size the table once.
      size_t nx = 0;
      for (size_t pc = R.pc; pc < end_[static_cast<size_t>(r)]; ++pc)
        nx += sched_.ops()[pc].kind == OpKind::kExchange &&
              sched_.ops()[pc].exchange.comm == x.comm;
      g.xstride = nx;
      g.xtimes.assign(g.members.size() * nx, 0.0);
      g.xcount.assign(g.members.size(), 0);
    }
    const size_t me = static_cast<size_t>(ref.index);
    if (!R.arrived) {
      R.arrived = true;
      CA_ASSERT(g.xcount[me] < g.xstride);
      g.xtimes[me * g.xstride + g.xcount[me]++] = R.clock;
      // Only a peer already parked in its exchange can be waiting on this.
      for (const int peer : {x.to, x.from}) {
        const int w = g.members[static_cast<size_t>(peer)];
        if (ranks_[static_cast<size_t>(w)].arrived) wake(w);
      }
    }
    const size_t n = g.xcount[me] - 1;
    const size_t from = static_cast<size_t>(x.from);
    const size_t to = static_cast<size_t>(x.to);
    if (g.xcount[from] <= n || g.xcount[to] <= n) return false;
    const int src = g.members[from], dst = g.members[to];
    const double entry = R.clock;
    const double recv_exit =
        std::max(entry, g.xtimes[from * g.xstride + n]) +
        simmpi::t_p2p_ranks(topo_, src, r,
                            static_cast<double>(x.recv_elems * esize_));
    R.charge(ph, recv_exit - R.clock);
    const double send_exit =
        std::max(g.xtimes[to * g.xstride + n], entry) +
        simmpi::t_p2p_ranks(topo_, r, dst,
                            static_cast<double>(x.send_elems * esize_));
    if (send_exit > R.clock) R.charge(ph, send_exit - R.clock);
    if (op.budget) R.budget += R.clock - entry;
    R.arrived = false;
    return true;
  }

  const Volume& volume(const Op::Redist& rd) {
    for (const Volume& v : volumes_)
      if (v.key.from == rd.from && v.key.to == rd.to &&
          v.key.transpose == rd.transpose)
        return v;
    CA_ASSERT(volumes_.size() < volumes_.capacity());  // keeps refs valid
    Volume& v = volumes_.emplace_back();
    v.key = rd;
    v.v = redistribution_volume(pg_.layouts[rd.from], pg_.layouts[rd.to],
                                rd.transpose, esize_);
    v.max_bytes = static_cast<double>(
        std::max(v.v.max_send_bytes, v.v.max_recv_bytes));
    for (const i64 sent : v.v.send_bytes)
      v.off_self += static_cast<double>(sent);
    return v;
  }

  const Program& pg_;
  const Topology& topo_;
  const Machine& anchor_;
  bool warm_;
  i64 esize_;
  Schedule& sched_;
  std::vector<size_t>& end_;  ///< one past each rank's last op
  std::vector<RankSim>& ranks_;
  std::vector<Group>& groups_;
  size_t ngroups_ = 0;
  std::vector<std::array<int, 4>>& order_;
  std::vector<int>& ready_;
  std::vector<Volume> volumes_;
};

}  // namespace

Prediction predict(Algo algo, const Workload& w, int P, const Machine& mach) {
  return predict(algo, w, P, Topology::homogeneous(std::max(P, 1), mach));
}

Prediction predict(Algo algo, const Workload& w, int P, const Topology& topo) {
  CA_REQUIRE(P >= 1 && P <= topo.nranks(),
             "predict: P=%d outside [1, %d]", P, topo.nranks());
  const Program pg = program_of(algo, w, P);
  thread_local Arena arena;
  return Replay(pg, topo, w.warm_comms, arena).run();
}

}  // namespace ca3dmm::costmodel
