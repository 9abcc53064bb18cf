// The virtual-clock rules: how an operation turns into clock, phase, traffic
// and memory numbers. Each rule is defined here once; the executing engine
// (Comm, on a RankCtx) and the cost model's replay (costmodel::predict, on
// its own per-rank state) both call it, so the two agree by construction.
// The replay runs no stragglers and passes slowdown 1. costmodel/model.hpp
// maps each schedule op to the rules it is charged by.
#pragma once

#include <algorithm>
#include <vector>

#include "common/partition.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/topology.hpp"

namespace ca3dmm::simmpi {

/// Phases every PGEMM algorithm in this repository charges its time to.
/// These match the categories of the paper's Fig. 5 runtime breakdown
/// ("replicate A,B" there is kReplicate + kShift here).
enum class Phase {
  kRedistribute,  ///< user layout <-> library-native layout conversion
  kReplicate,     ///< A/B replication (all-gather / broadcast)
  kShift,         ///< 2-D engine communication (Cannon shifts, SUMMA bcasts)
  kCompute,       ///< local GEMM
  kReduce,        ///< partial-C reduction (reduce-scatter / allreduce)
  kMisc,          ///< everything else (barriers, setup)
  kCount
};

const char* phase_name(Phase p);

/// Per-rank results of a simulated run.
struct RankStats {
  double vtime = 0;                                  ///< final virtual clock
  double phase_s[static_cast<int>(Phase::kCount)] = {};  ///< time per phase
  /// Modeled inter-node traffic of the collectives this rank took part in,
  /// per phase. Each member of a collective accounts 1/p of the schedule's
  /// aggregate inter-node bytes, so summing over ranks recovers the total
  /// bytes the schedule puts on the network (that sum is what
  /// aggregate_stats reports).
  double inter_bytes_s[static_cast<int>(Phase::kCount)] = {};
  /// Logical payload bytes this rank sent / received per phase: p2p message
  /// sizes, and for collectives the rank's own contribution / share of the
  /// delivered data (e.g. allgather: send my block, receive everyone
  /// else's). Schedule-independent by construction — redistribution sends
  /// must match redistribution_volume's per-rank prediction exactly.
  double bytes_sent_s[static_cast<int>(Phase::kCount)] = {};
  double bytes_recvd_s[static_cast<int>(Phase::kCount)] = {};
  double flops = 0;                                  ///< local flops executed
  i64 peak_bytes = 0;                                ///< peak tracked memory
  i64 cur_bytes = 0;
  /// Compute-phase load balance: max over ranks of compute time divided by
  /// the mean over ranks that computed anything. 1.0 = perfectly even; the
  /// heterogeneity-aware planner's uneven k partitioning drives this toward
  /// 1 on asymmetric topologies. Filled by aggregate_stats() only (1.0 on
  /// per-rank stats).
  double load_balance = 1.0;
  /// Communicator splits this rank took part in. Splits are the setup cost
  /// the engine's communicator cache amortizes, so the engine tests assert
  /// on this counter directly.
  i64 comm_splits = 0;
  /// P2p messages delivered into this rank's *posted* receive buffer by the
  /// sender, rather than pulled by this rank. Purely observational: it
  /// depends on whether the receiver parked before the sender arrived,
  /// which with more than one fiber worker is up to the host, so it is NOT
  /// part of the determinism contract (vtimes and payloads are identical
  /// either way). With one worker (set_fiber_workers(1)) dispatch order is
  /// deterministic, so tests can pin it exactly.
  i64 p2p_zero_copy = 0;
  /// Corruptions neutralized by ABFT decode on this rank: payload bytes
  /// corrected in place plus trailer hits absorbed. Fault-injection tests
  /// assert on this to prove an injected flip actually fired and was caught
  /// (a run that dodged the fault would pass the bit-identity check too).
  i64 abft_corrected = 0;

  double phase(Phase p) const { return phase_s[static_cast<int>(p)]; }
  double inter_bytes(Phase p) const {
    return inter_bytes_s[static_cast<int>(p)];
  }
  double total_inter_bytes() const {
    double s = 0;
    for (double b : inter_bytes_s) s += b;
    return s;
  }
  double bytes_sent(Phase p) const { return bytes_sent_s[static_cast<int>(p)]; }
  double bytes_recvd(Phase p) const {
    return bytes_recvd_s[static_cast<int>(p)];
  }
  double total_bytes_sent() const {
    double s = 0;
    for (double b : bytes_sent_s) s += b;
    return s;
  }
};

/// One memory-bandwidth-bound linear scan of `bytes` (ABFT encode/decode,
/// the local copy of an identity redistribution).
inline double local_work_time(const Machine& m, double bytes,
                              double slowdown) {
  return bytes / m.intra_rank_bandwidth() * slowdown;
}

/// One message of `bytes` from world rank `src` to `dst`: shared memory on
/// one node, the cluster's NIC across its nodes, the inter-cluster link
/// across clusters.
double p2p_time(const Topology& topo, int src, int dst, double bytes,
                double slowdown);

/// When a message from `src` to `dst` completes: after both ends entered,
/// plus its p2p_time at the receiver's slowdown.
inline double p2p_exit(const Topology& topo, int src, int dst, double bytes,
                       double recv_entry, double send_entry,
                       double slowdown) {
  return std::max(recv_entry, send_entry) +
         p2p_time(topo, src, dst, bytes, slowdown);
}

/// The end of a collective and what each of its `p` members books.
struct CollExit {
  double t = 0;            ///< exit clock: latest entry clock + cost
  double inter_share = 0;  ///< 1/p of the schedule's inter-node bytes
};

inline CollExit collective_exit(double t0, const CollCost& cost, int p) {
  return {t0 + cost.t, cost.inter_bytes / p};
}

/// What an alltoallv is priced by, folded over its members: the most bytes
/// one member sends or receives, and the bytes that leave their source rank
/// (self-copies excluded on both).
struct A2aVolume {
  double max_bytes = 0, off_self = 0;
  void add(i64 sent, i64 recvd) {
    off_self += static_cast<double>(sent);
    max_bytes = std::max(max_bytes, static_cast<double>(std::max(sent, recvd)));
  }
};

/// How one communicator prices its collectives: its exact node-multiset
/// profile, the anchor machine's link mix for it and its collective
/// configuration. Each method resolves the configured schedule and returns
/// the cost of one collective of that kind. simmpi's CommState and the
/// replay's groups each hold one.
struct GroupPricing {
  GroupPricing() = default;
  /// Anchor: `topo.machine()`, which must outlive the pricing.
  GroupPricing(const Topology& topo, const std::vector<int>& members,
               const CollectiveConfig& cfg);

  GroupProfile prof;
  LinkParams link;
  CollectiveConfig cfg;
  const Machine* anchor = nullptr;

  CollCost barrier() const { return {link.alpha * log2d(prof.size)}; }
  CollCost bcast(double bytes) const;
  /// `total`: the bytes of the concatenated result (allgather, allgatherv).
  CollCost allgather(double total) const;
  CollCost reduce_scatter(double bytes, bool custom_tree) const;
  CollCost allreduce(double bytes) const;
  CollCost alltoallv(const A2aVolume& v) const;
  /// One small word per rank, always the butterfly (setup metadata, never
  /// worth tuning).
  CollCost split() const;

 private:
  CollAlgo pick(CollAlgo configured, double bytes) const;
};

/// A rank's virtual clock and the stats it is charged: the per-rank half of
/// the rules, shared by simmpi's RankCtx and the cost model's replay.
/// Tracing never enters here, so clock arithmetic is identical with tracing
/// on or off (call sites emit their own TraceRecords).
struct RankClock {
  double clock = 0;  ///< virtual time (s)
  RankStats stats;

  void charge(Phase ph, double seconds) {
    clock += seconds;
    stats.phase_s[static_cast<int>(ph)] += seconds;
  }
  /// Moves the clock to `t` (never backwards), charging the wait to `ph`;
  /// returns the advance.
  double advance_to(Phase ph, double t) {
    const double adv = std::max(0.0, t - clock);
    charge(ph, adv);
    return adv;
  }
  /// Leaves a collective that ended at `x`: books this member's inter-node
  /// share and waits for the exit; returns the advance.
  double leave_collective(Phase ph, const CollExit& x) {
    stats.inter_bytes_s[static_cast<int>(ph)] += x.inter_share;
    return advance_to(ph, x.t);
  }
  /// Charges a GEMM of `flops` touching `bytes` on `m`, overlapped with
  /// `budget` seconds of already-charged communication (dual-buffer
  /// pipelining; 0 = none): the compute phase gets the full GEMM time, the
  /// clock only the part that does not hide, which it returns. On a CPU
  /// only budget * overlap_efficiency hides; the GPU path does not pipeline
  /// (§IV-C) and ignores the budget.
  double charge_compute(const Machine& m, double flops, double bytes,
                        double budget, double slowdown) {
    const double hidden = m.use_gpu ? 0.0 : budget * m.overlap_efficiency;
    const double t = m.gemm_time(flops, bytes) * slowdown;
    const double adv = std::max(0.0, t - hidden);
    stats.flops += flops;
    stats.phase_s[static_cast<int>(Phase::kCompute)] += t;
    clock += adv;
    return adv;
  }
  void track_alloc(i64 bytes) {
    stats.cur_bytes += bytes;
    stats.peak_bytes = std::max(stats.peak_bytes, stats.cur_bytes);
  }
  void track_free(i64 bytes) { stats.cur_bytes -= bytes; }
};

/// The cross-rank fold of `n` ranks' stats (`stats_of(r)`), in rank order:
/// max vtime, phase time and peak; summed flops, inter-node and payload
/// bytes, splits and ABFT corrections; and the compute-phase load balance.
template <typename StatsOf>
RankStats fold_rank_stats(int n, StatsOf&& stats_of) {
  RankStats agg;
  double max_c = 0, sum_c = 0;
  int n_c = 0;
  for (int r = 0; r < n; ++r) {
    const RankStats& s = stats_of(r);
    agg.vtime = std::max(agg.vtime, s.vtime);
    for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
      agg.phase_s[p] = std::max(agg.phase_s[p], s.phase_s[p]);
      agg.inter_bytes_s[p] += s.inter_bytes_s[p];  // sum: per-rank 1/p shares
      agg.bytes_sent_s[p] += s.bytes_sent_s[p];
      agg.bytes_recvd_s[p] += s.bytes_recvd_s[p];
    }
    agg.flops += s.flops;
    agg.peak_bytes = std::max(agg.peak_bytes, s.peak_bytes);
    agg.comm_splits += s.comm_splits;
    agg.abft_corrected += s.abft_corrected;
    const double c = s.phase_s[static_cast<int>(Phase::kCompute)];
    if (c <= 0) continue;
    max_c = std::max(max_c, c);
    sum_c += c;
    n_c++;
  }
  if (n_c > 0 && sum_c > 0) agg.load_balance = max_c * n_c / sum_c;
  return agg;
}

}  // namespace ca3dmm::simmpi
