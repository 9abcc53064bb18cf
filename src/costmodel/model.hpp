// Analytic cost and memory model.
//
// predict() does not re-derive the algorithms. Every plan emits a per-rank
// schedule (core/schedule.hpp) — the op list its executor runs — and the
// model replays all P schedules through a threadless discrete-event loop.
// It defines no timing rule of its own: each op is charged by the function
// simmpi's Comm charges it with, from simmpi/clock_rules.hpp, at slowdown 1:
//
//   GEMM                       RankClock::charge_compute
//   ABFT scan, identity copy   local_work_time
//   sendrecv                   p2p_exit, RankClock::advance_to
//   collective, alltoallv      GroupPricing, collective_exit,
//                              RankClock::leave_collective
//   alloc / free               RankClock::track_alloc / track_free
//   Prediction                 fold_rank_stats (Cluster::aggregate_stats)
//
// What the replay keeps is the rendezvous: which members a collective waits
// for, which exchanges pair up, and the communicators a split forms.
// predict_each replays one built program once per collective config, so
// pricing many schedules of one plan pays for one build.
//
// Without threads or data it evaluates the paper's 192..3072-process
// configurations (matrices up to 1.2M on a side) in milliseconds, and it is
// exact: tests/test_costmodel.cpp holds every phase, the total, per-rank
// flops, per-phase inter-node bytes, load balance and per-rank peak memory
// to the executed engine at rtol 1e-6 on every shape — uneven blocks, idle
// ranks and heterogeneous topologies included.
#pragma once

#include <compare>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "baselines/ctf_like.hpp"
#include "baselines/p25d.hpp"
#include "baselines/summa.hpp"
#include "core/ca3dmm.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm::costmodel {

enum class Algo {
  kCa3dmm,       ///< this paper's algorithm, Cannon inner engine
  kCa3dmmSumma,  ///< CA3DMM-S ablation (§III-E)
  kCosma,        ///< COSMA-like baseline
  kCarma,        ///< CARMA (power-of-two bisection)
  kCtf,          ///< CTF-like wrapper (shape-oblivious grid + remap)
  kSumma,        ///< plain 2-D SUMMA
  kP25d,         ///< the true 2.5D algorithm (layered Cannon)
};

const char* algo_name(Algo a);

/// Version of the analytic cost model. Bump whenever a change alters the
/// numbers predict() produces (new cost term, changed formula, new machine
/// parameter): the tuning database (tuner/db.hpp) stamps this into its file
/// header and discards entries tuned under a different model, since their
/// predicted/validated vtimes are no longer comparable.
// Version 2: exact node-multiset intra-node byte fraction, heterogeneous
// multi-cluster topologies, cross-cluster two-level schedules, weighted k
// partitioning.
// Version 3: predictions replay the executed schedules, so collectives
// synchronize at their latest member on uneven shapes too (phase
// attribution and totals change there; evenly divisible shapes do not).
// Version 4: an identity conversion (native layouts in and out) is a local
// copy charged as local work, not a world alltoallv priced at alpha(P-1),
// and stages no buffers (totals and peaks of native-layout runs fall).
inline constexpr int kCostModelVersion = 4;

/// One multiply: the options a CA3DMM plan is built with (the base; the
/// baselines read only `force_grid`) plus its shape and how it is laid out,
/// typed and warmed. program_of sets `use_summa` from the Algo, so a
/// Workload run as kCa3dmm must leave it false. An unset `coll` is priced
/// and run as the world default, the paper butterfly.
struct Workload : Ca3dmmOptions {
  i64 m = 0, n = 0, k = 0;
  /// false = library-native input/output layouts (Fig. 3 "native layout");
  /// true = 1-D column layouts for A, B, C (Fig. 3 "custom layout").
  bool custom_layout = false;
  i64 esize = 8;  ///< element size (double)
  /// Plan and split communicators already cached — the persistent engine's
  /// hit path (engine/engine.hpp): the four per-plan splits PlanComms
  /// caches (world/cannon/replication/reduction) charge nothing and do not
  /// synchronize; SUMMA's per-call row/col splits still do, exactly like
  /// the executable hit path. kCa3dmm/kCa3dmmSumma only: the other
  /// algorithms have no communicator cache to be warm in.
  bool warm_comms = false;

  Workload() = default;
  Workload(i64 m_, i64 n_, i64 k_, const Ca3dmmOptions& opt = {})
      : Ca3dmmOptions(opt), m(m_), n(n_), k(k_) {}

  friend auto operator<=>(const Workload&, const Workload&) = default;
};

struct Prediction {
  ProcGrid grid{};
  int active = 0;
  double t_total = 0;  ///< max over ranks, seconds
  double phase_s[static_cast<int>(simmpi::Phase::kCount)] = {};
  i64 peak_bytes = 0;  ///< max over ranks
  double flops_per_rank = 0;
  /// Compute-phase load balance from the fold Cluster::aggregate_stats
  /// uses (fold_rank_stats), so hetero-aware plans can be judged before
  /// running them. 1.0 = perfectly even.
  double load_balance = 1.0;

  /// Modeled inter-node traffic of every collective, bytes per phase.
  /// Unlike phase_s (max over ranks) these are totals SUMMED over ranks:
  /// each rank accounts 1/p of its group's aggregate, the same convention
  /// as the engine's RankStats::inter_bytes.
  double inter_bytes_s[static_cast<int>(simmpi::Phase::kCount)] = {};

  double phase(simmpi::Phase p) const {
    return phase_s[static_cast<int>(p)];
  }
  double inter_bytes(simmpi::Phase p) const {
    return inter_bytes_s[static_cast<int>(p)];
  }
  double total_inter_bytes() const {
    double t = 0;
    for (double b : inter_bytes_s) t += b;
    return t;
  }
  /// Percentage of machine peak (Fig. 3/4 y-axis): useful flops over
  /// aggregate nominal peak of all P ranks.
  double pct_peak(i64 m, i64 n, i64 k, int P,
                  const simmpi::Machine& mach) const {
    const double flops = 2.0 * static_cast<double>(m) * n * k;
    return 100.0 * flops / (t_total * P * mach.rank_peak_flops());
  }
};

/// One multiply of a workload by an algorithm on P ranks: the plan and the
/// layouts its redistribute ops name. predict() replays every rank's
/// build_schedule(plan, ...); run_workload (drift.hpp) executes the plan
/// with run_plan, the body every public executor forwards to.
struct Program {
  std::variant<Ca3dmmPlan, CosmaPlan, CtfPlan, SummaPlan, P25dPlan> plan;
  i64 esize = 8;
  /// Indexed by LayoutId; user layouts share the native ones unless the
  /// workload asks for custom layouts.
  BlockLayout layouts[kLayoutCount];

  int nranks() const {
    return std::visit([](const auto& p) { return p.nranks(); }, plan);
  }
  ProcGrid grid() const {
    return std::visit([](const auto& p) { return p.grid(); }, plan);
  }
  int active() const {
    return std::visit([](const auto& p) { return p.active(); }, plan);
  }
};

/// The program of `w` under `algo` on P ranks.
Program program_of(Algo algo, const Workload& w, int P);

/// Predicts one multiply of `w` by `algo` on P ranks of `mach`
/// (homogeneous: wraps Topology::homogeneous).
Prediction predict(Algo algo, const Workload& w, int P,
                   const simmpi::Machine& mach);

/// Topology-aware prediction: per-rank machines, exact node-multiset group
/// profiles, cross-cluster schedules — what the heterogeneous engine
/// charges. P must not exceed topo.nranks(). predict_each with the one
/// config `w.coll`.
Prediction predict(Algo algo, const Workload& w, int P,
                   const simmpi::Topology& topo);

/// predict() of `w` with its `coll` replaced by each of `configs`, in order.
/// The collective config enters a schedule only as Schedule::coll(), so the
/// program and all P schedules are built once and replayed per config:
/// element i equals predict() of `w` with `coll = configs[i]`, bit for bit.
/// The tuner prices every collective schedule of a (grid, overlap) this way.
std::vector<Prediction> predict_each(
    Algo algo, const Workload& w, int P, const simmpi::Topology& topo,
    std::span<const std::optional<simmpi::CollectiveConfig>> configs);

}  // namespace ca3dmm::costmodel
