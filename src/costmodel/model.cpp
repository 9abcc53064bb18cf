#include "costmodel/model.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "layout/redistribute.hpp"
#include "simmpi/clock_rules.hpp"

namespace ca3dmm::costmodel {

using simmpi::CollCost;
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

Phase phase_of(const Op& op) {
  return op.phase == kInheritPhase ? Phase::kMisc : op.phase;
}

/// (color, key, child slot) of each member's post to one split.
using SplitArgs = std::vector<std::array<int, 3>>;

/// One communicator of the replay: membership, pricing, and the rendezvous
/// state a simmpi CommState keeps.
struct Group {
  std::vector<int> members;  ///< world ranks, in group-rank order
  simmpi::GroupPricing pricing;
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

/// Per-rank replay state: the clock and stats a RankCtx keeps, plus the
/// rank's place in its schedule and its live buffers.
struct RankSim : simmpi::RankClock {
  size_t pc = 0;  ///< next op, an index into the shared schedule
  double budget = 0;  ///< comm time an overlapped GEMM may hide behind
  i64 bytes[kSlotCount] = {};
  CommRef comm[kCommCount];
  bool arrived = false;  ///< parked in the op at pc (collective or exchange)
  bool queued = false;
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

/// Builds every rank's schedule once; each run() replays them with simmpi's
/// clock rules.
class Replay {
 public:
  Replay(const Program& pg, const Topology& topo, bool warm, Arena& arena)
      : pg_(pg),
        topo_(topo),
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
    std::visit(
        [&](const auto& plan) {
          for (int r = 0; r < P; ++r) {
            sched_.next_rank();
            build_schedule(plan, r, topo.machine(), false, false, sched_);
            end_[static_cast<size_t>(r)] = sched_.ops().size();
          }
        },
        pg.plan);
    volumes_.reserve(kLayoutCount);
    std::vector<int> world(static_cast<size_t>(P));
    std::iota(world.begin(), world.end(), 0);
    world_pricing_ = simmpi::GroupPricing(topo_, world, {});
  }

  /// One replay of the built schedules with their collectives configured
  /// by `coll` (Schedule::set_coll): only the replay state is reset, so
  /// configs that share a program share its schedules and volumes.
  Prediction run(const std::optional<simmpi::CollectiveConfig>& coll) {
    sched_.set_coll(coll);
    const size_t P = end_.size();
    ranks_.assign(P, RankSim{});
    ready_.clear();
    ngroups_ = 0;
    Group& world = group(new_group());
    world.members.resize(P);
    std::iota(world.members.begin(), world.members.end(), 0);
    world.pricing = world_pricing_;
    for (size_t r = 0; r < P; ++r) {
      ranks_[r].pc = r == 0 ? 0 : end_[r - 1];
      ranks_[r].comm[kWorld] = CommRef{0, static_cast<int>(r)};
    }
    for (int r = static_cast<int>(P) - 1; r >= 0; --r) wake(r);
    while (!ready_.empty()) {
      const int r = ready_.back();
      ready_.pop_back();
      ranks_[static_cast<size_t>(r)].queued = false;
      advance(r);
    }
    Prediction p;
    p.grid = pg_.grid();
    p.active = pg_.active();
    for (size_t r = 0; r < ranks_.size(); ++r) {
      RankSim& R = ranks_[r];
      CA_REQUIRE(R.pc == end_[r], "cost model replay deadlocked at rank %zu",
                 r);
      R.stats.vtime = R.clock;
      p.flops_per_rank = std::max(p.flops_per_rank, R.stats.flops);
    }
    const simmpi::RankStats agg = simmpi::fold_rank_stats(
        static_cast<int>(ranks_.size()),
        [&](int r) -> const simmpi::RankStats& {
          return ranks_[static_cast<size_t>(r)].stats;
        });
    p.t_total = agg.vtime;
    std::copy_n(agg.phase_s, kPhases, p.phase_s);
    std::copy_n(agg.inter_bytes_s, kPhases, p.inter_bytes_s);
    p.peak_bytes = agg.peak_bytes;
    p.load_balance = agg.load_balance;
    return p;
  }

 private:
  /// What a redistribution's alltoallv moves and stages.
  struct Volume {
    Op::Redist key;
    RedistVolume v;
    simmpi::A2aVolume a2a;
  };

  Group& group(int id) { return groups_[static_cast<size_t>(id)]; }

  /// An empty group; the caller adds its members, then its pricing.
  int new_group() {
    if (ngroups_ == groups_.size()) groups_.emplace_back();
    Group& g = groups_[ngroups_];
    g.members.clear();
    g.arrived = 0;
    g.t0 = 0;
    g.split.clear();
    g.xtimes.clear();
    g.xcount.clear();
    g.xstride = 0;
    return static_cast<int>(ngroups_++);
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
      const Phase ph = phase_of(op);
      switch (op.kind) {
        case OpKind::kAlloc:
          R.bytes[op.buf.slot] = op.buf.elems * esize_;
          R.track_alloc(R.bytes[op.buf.slot]);
          break;
        case OpKind::kFree:
          R.track_free(R.bytes[op.buf.slot]);
          R.bytes[op.buf.slot] = 0;
          break;
        case OpKind::kCopy:
        case OpKind::kMarker:
          break;
        case OpKind::kScan:
          local_work(R, ph, mach, op.scan.payload);
          break;
        case OpKind::kCompute:
          R.charge_compute(mach, op.compute.flops, op.compute.bytes,
                           op.budget ? R.budget : 0.0, 1.0);
          if (op.budget) R.budget = 0;
          break;
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

  /// One scan of `elems` elements.
  void local_work(RankSim& R, Phase ph, const Machine& mach, i64 elems) const {
    const double bytes =
        static_cast<double>(elems) * static_cast<double>(esize_);
    if (bytes > 0) R.charge(ph, simmpi::local_work_time(mach, bytes, 1.0));
  }

  /// A collective ends for every member when its last member arrives. A
  /// warm cacheable split (taken from PlanComms) meets at the same point,
  /// at no cost and without synchronizing clocks.
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
      R.track_alloc(v.v.send_staging_bytes[static_cast<size_t>(r)]);
      R.track_alloc(v.v.recv_staging_bytes[static_cast<size_t>(r)]);
    } else if (op.kind == OpKind::kSplit) {
      if (g.split.empty()) g.split.resize(g.members.size());
      g.split[static_cast<size_t>(ref.index)] = {op.split.color, op.split.key,
                                                 op.split.child};
    } else if (op.coll.use_cfg && sched_.coll()) {
      g.pricing.cfg = *sched_.coll();
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
    const simmpi::CollExit x = simmpi::collective_exit(
        group(gid).t0, cached ? CollCost{} : price(group(gid).pricing, op),
        static_cast<int>(group(gid).members.size()));
    const Phase ph = phase_of(op);
    if (op.kind == OpKind::kSplit) form_children(gid, group(gid).split);
    Group& g = group(gid);  // form_children may have grown groups_
    for (const int m : g.members) {
      RankSim& M = ranks_[static_cast<size_t>(m)];
      // A cached split books nothing: its cost and inter bytes are 0.
      const double adv = cached ? 0.0 : M.leave_collective(ph, x);
      if (op.budget) M.budget += adv;
      if (op.kind == OpKind::kRedistribute) {
        const Volume& v = volume(op.redist);
        M.track_free(v.v.send_staging_bytes[static_cast<size_t>(m)] +
                     v.v.recv_staging_bytes[static_cast<size_t>(m)]);
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

  /// The collective `op` stands for, priced by its group.
  CollCost price(const simmpi::GroupPricing& gp, const Op& op) {
    i64 total = 0;
    if (op.kind == OpKind::kAllgatherv || op.kind == OpKind::kReduceScatter)
      for (const i64 c : sched_.counts(op)) total += c;
    switch (op.kind) {
      case OpKind::kRedistribute: return gp.alltoallv(volume(op.redist).a2a);
      case OpKind::kSplit: return gp.split();
      case OpKind::kAllgatherv: return gp.allgather(static_cast<double>(total));
      case OpKind::kReduceScatter:
        return gp.reduce_scatter(static_cast<double>(total * esize_),
                                 op.coll.custom_tree);
      default:  // kBcast
        return gp.bcast(static_cast<double>(op.coll.elems * esize_));
    }
  }

  /// The split's children: ascending colors, members ordered by (key,
  /// parent rank); color < 0 gets no communicator. `args` is read before
  /// any group is added, so it may live in a group.
  void form_children(int gid, const SplitArgs& args) {
    order_.clear();  // (color, key, parent index, child slot)
    for (size_t i = 0; i < args.size(); ++i)
      order_.push_back(
          {args[i][0], args[i][1], static_cast<int>(i), args[i][2]});
    std::sort(order_.begin(), order_.end());
    const simmpi::CollectiveConfig cfg = group(gid).pricing.cfg;
    for (size_t lo = 0; lo < order_.size();) {
      const int color = order_[lo][0];
      size_t hi = lo;
      while (hi < order_.size() && order_[hi][0] == color) ++hi;
      const int id = color < 0 ? -1 : new_group();
      for (size_t i = lo; i < hi; ++i) {
        const int world = group(gid).members[static_cast<size_t>(order_[i][2])];
        ranks_[static_cast<size_t>(world)].comm[order_[i][3]] =
            CommRef{id, id < 0 ? 0 : static_cast<int>(i - lo)};
        if (id >= 0) group(id).members.push_back(world);
      }
      if (id >= 0)
        group(id).pricing = simmpi::GroupPricing(topo_, group(id).members, cfg);
      lo = hi;
    }
  }

  /// A sendrecv: the receive completes, then the op waits until the peer
  /// consumed the outgoing message.
  bool exchange(int r, const Op& op, Phase ph) {
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
    R.advance_to(ph, simmpi::p2p_exit(
                         topo_, src, r,
                         static_cast<double>(x.recv_elems * esize_), entry,
                         g.xtimes[from * g.xstride + n], 1.0));
    R.advance_to(ph, simmpi::p2p_exit(
                         topo_, r, dst,
                         static_cast<double>(x.send_elems * esize_),
                         g.xtimes[to * g.xstride + n], entry, 1.0));
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
    for (size_t r = 0; r < v.v.send_bytes.size(); ++r)
      v.a2a.add(v.v.send_bytes[r], v.v.recv_bytes[r]);
    return v;
  }

  const Program& pg_;
  const Topology& topo_;
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
  simmpi::GroupPricing world_pricing_;  ///< before a collective configures it
};

}  // namespace

Prediction predict(Algo algo, const Workload& w, int P, const Machine& mach) {
  return predict(algo, w, P, Topology::homogeneous(std::max(P, 1), mach));
}

Prediction predict(Algo algo, const Workload& w, int P, const Topology& topo) {
  return predict_each(algo, w, P, topo, {&w.coll, 1}).front();
}

std::vector<Prediction> predict_each(
    Algo algo, const Workload& w, int P, const Topology& topo,
    std::span<const std::optional<simmpi::CollectiveConfig>> configs) {
  CA_REQUIRE(P >= 1 && P <= topo.nranks(),
             "predict: P=%d outside [1, %d]", P, topo.nranks());
  const Program pg = program_of(algo, w, P);
  thread_local Arena arena;
  Replay replay(pg, topo, w.warm_comms, arena);
  std::vector<Prediction> out;
  out.reserve(configs.size());
  for (const auto& coll : configs) out.push_back(replay.run(coll));
  return out;
}

}  // namespace ca3dmm::costmodel
