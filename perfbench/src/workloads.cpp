#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "core/ca3dmm.hpp"
#include "costmodel/admission.hpp"
#include "costmodel/drift.hpp"
#include "engine/engine.hpp"
#include "host.hpp"
#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"
#include "simmpi/comm.hpp"
#include "tuner/tuner.hpp"

namespace perfbench {

template <typename Op>
void Workload::run_phases(const std::vector<TimedPhase>& phases, int group,
                          RunLog& log, Op&& op) {
  for (size_t p = 0; p < phases.size(); ++p) {
    rec_.set_enabled(phases[p].traced);
    const double t_start = rec_.now();
    const double cpu_start = process_cpu_s();
    do {
      for (int g = 0; g < group; ++g) {
        const std::int64_t id = next_op_id();
        const double c0 = process_cpu_s();
        const double t0 = rec_.now();
        {
          SpanScope span(rec_, "op", 0, id);
          op(phases[p].traced, id, span.id());
        }
        log.ops.push_back({static_cast<int>(p), rec_.now() - t0,
                           process_cpu_s() - c0});
      }
    } while (rec_.now() - t_start < phases[p].seconds);
    log.window_s.push_back(rec_.now() - t_start);
    log.window_cpu_s.push_back(process_cpu_s() - cpu_start);
  }
  rec_.set_enabled(false);
}

namespace {

using ca3dmm::BlockLayout;
using ca3dmm::Ca3dmmOptions;
using ca3dmm::Ca3dmmPlan;
using ca3dmm::ProcGrid;
using ca3dmm::Rect;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using simmpi::RankStats;
namespace costmodel = ca3dmm::costmodel;

constexpr int kPhases = static_cast<int>(simmpi::Phase::kCount);
constexpr double kDriftRtol = 1e-6;
constexpr double kMiB = 1024.0 * 1024.0;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return ca3dmm::splitmix64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

Machine machine_with_rpn(int rpn) {
  Machine m = Machine::phoenix_mpi();
  m.ranks_per_node = rpn;
  m.cores_per_node = rpn;
  return m;
}

/// Fibers whatever CA3DMM_SIMMPI_BACKEND / _STACK_KB say, on a fixed
/// worker count, so two runs of one commit schedule alike.
void configure(Cluster& cl, int workers) {
  cl.set_backend(Cluster::Backend::kFibers);
  cl.set_fiber_workers(workers);
  cl.set_fiber_stack_bytes(std::size_t{1} << 20);
}

void fill_local(const BlockLayout& lay, int rank, std::uint64_t seed,
                std::vector<double>& buf) {
  buf.assign(static_cast<size_t>(lay.local_size(rank)), 0.0);
  size_t pos = 0;
  for (const Rect& r : lay.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j)
        buf[pos++] = ca3dmm::matrix_entry<double>(seed, i, j);
}

/// Freivalds' check of C = A B for matrix_entry operands: C r against
/// A (B r) for a seeded random r, O(mk + kn) to set up, O(mn) per check.
class Freivalds {
 public:
  Freivalds() = default;
  Freivalds(i64 m, i64 n, i64 k, std::uint64_t seed_a, std::uint64_t seed_b,
            std::uint64_t seed_r)
      : r_(static_cast<size_t>(n)), y_(static_cast<size_t>(m), 0.0) {
    for (i64 j = 0; j < n; ++j)
      r_[static_cast<size_t>(j)] = ca3dmm::matrix_entry<double>(seed_r, j, 0);
    std::vector<double> br(static_cast<size_t>(k), 0.0);
    for (i64 l = 0; l < k; ++l) {
      double s = 0;
      for (i64 j = 0; j < n; ++j)
        s += ca3dmm::matrix_entry<double>(seed_b, l, j) * r_[static_cast<size_t>(j)];
      br[static_cast<size_t>(l)] = s;
    }
    for (i64 i = 0; i < m; ++i) {
      double s = 0;
      for (i64 l = 0; l < k; ++l)
        s += ca3dmm::matrix_entry<double>(seed_a, i, l) * br[static_cast<size_t>(l)];
      y_[static_cast<size_t>(i)] = s;
    }
    // Entries are in [-1/2, 1/2): rounding stays far below 1e-12 per term,
    // while one wrong C element moves its row by O(0.1).
    tol_ = 1e-12 * static_cast<double>(k) * static_cast<double>(n) + 1e-12;
  }

  /// Adds rank `rank`'s share of C r (its local C under `lay`) to `acc`.
  void accumulate(const BlockLayout& lay, int rank, const double* c_local,
                  std::vector<double>& acc) const {
    size_t pos = 0;
    for (const Rect& rc : lay.rects_of(rank))
      for (i64 i = rc.r.lo; i < rc.r.hi; ++i) {
        double s = 0;
        for (i64 j = rc.c.lo; j < rc.c.hi; ++j)
          s += c_local[pos++] * r_[static_cast<size_t>(j)];
        acc[static_cast<size_t>(i)] += s;
      }
  }

  /// Empty when C r matches A (B r); else what differed.
  std::string check(const std::vector<double>& cr) const {
    if (cr.size() != y_.size()) return "Freivalds: C r has the wrong length";
    double worst = 0;
    size_t at = 0;
    for (size_t i = 0; i < y_.size(); ++i) {
      const double d = std::abs(cr[i] - y_[i]);
      if (!(d <= worst)) {  // also catches NaN
        worst = d;
        at = i;
      }
    }
    if (worst <= tol_) return "";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "Freivalds: |C r - A B r| = %.3e at row %zu (tol %.1e)",
                  worst, at, tol_);
    return buf;
  }

  i64 rows() const { return static_cast<i64>(y_.size()); }

 private:
  std::vector<double> r_, y_;
  double tol_ = 0;
};

double drift_max(const costmodel::DriftReport& rep) {
  double worst = rep.total.rel;
  for (const costmodel::PhaseDrift& d : rep.phases) worst = std::max(worst, d.rel);
  return worst;
}

/// Empty when every phase, the total and peak bytes match the model.
std::string drift_failure(const costmodel::DriftReport& rep) {
  if (rep.ok()) return "";
  return "drift gate (rtol 1e-6, exact peak bytes) failed:\n" + rep.table();
}

void add_vtime_phases(const RankStats& st, Metrics& out) {
  static const char* const kNames[] = {
      "simmpi.vtime.redistribute_s", "simmpi.vtime.replicate_s",
      "simmpi.vtime.shift_s",        "simmpi.vtime.compute_s",
      "simmpi.vtime.reduce_s",       "simmpi.vtime.misc_s"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kPhases);
  for (int p = 0; p < kPhases; ++p)
    out.push_back({kNames[p], st.phase_s[p], "s-sim", "deterministic"});
}

/// p-quantile by nearest rank (what the service's own p99 uses).
double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())) - 1);
  return v[std::min(idx, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// fig3-p3072: one-shot CA3DMM at paper scale, native layouts.

class Fig3Workload final : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "fig3-p3072"; }

  void setup() override {
    P_ = opt_.smoke ? 48 : 3072;
    n_ = opt_.smoke ? 96 : 960;
    copt_.force_grid = opt_.smoke ? ProcGrid{4, 4, 3} : ProcGrid{16, 16, 12};
    // 16 ranks per node aligns nodes with the 256-rank Cannon groups (the
    // executed Fig. 3 point of bench_fig3_strong_scaling).
    mach_ = machine_with_rpn(16);
    cl_ = std::make_unique<Cluster>(P_, mach_);
    configure(*cl_, opt_.workers);
    plan_ = Ca3dmmPlan::make(n_, n_, n_, P_, copt_);
    a_lay_ = plan_.a_native();
    b_lay_ = plan_.b_native();
    c_lay_ = plan_.c_native();
    const std::uint64_t sa = derive_seed(opt_.seed, 1);
    const std::uint64_t sb = derive_seed(opt_.seed, 2);
    a_.resize(static_cast<size_t>(P_));
    b_.resize(static_cast<size_t>(P_));
    c_.resize(static_cast<size_t>(P_));
    for (int r = 0; r < P_; ++r) {
      fill_local(a_lay_, r, sa, a_[static_cast<size_t>(r)]);
      fill_local(b_lay_, r, sb, b_[static_cast<size_t>(r)]);
    }
    costmodel::Workload w{n_, n_, n_};
    w.force_grid = copt_.force_grid;
    pred_ = costmodel::predict(costmodel::Algo::kCa3dmm, w, P_, mach_);
    fv_ = Freivalds(n_, n_, n_, sa, sb, derive_seed(opt_.seed, 3));
  }

  void run(const std::vector<TimedPhase>& phases, RunLog& log) override {
    one_op(next_op_id(), 0, log);
    log.setup_done(rec_.now());
    run_phases(phases, 1, log, [&](bool, std::int64_t id, std::int64_t parent) {
      one_op(id, parent, log);
    });
    log.e2e.push_back({"vtime_s", last_.vtime, "s-sim", "one multiply"});
    log.e2e.push_back({"peak_rank_mib", last_.peak_bytes / kMiB, "MiB",
                       "max per-rank tracked peak"});
    log.layer.push_back({"costmodel.drift_max", drift_max_, "ratio",
                         "max per-phase |exec-pred|/max"});
    add_vtime_phases(last_, log.layer);
  }

  std::vector<ProbeCase> probe_cases() override {
    return {ProbeCase{n_, n_, n_, copt_, false, cl_.get()}};
  }

 private:
  void one_op(std::int64_t id, std::int64_t parent, RunLog& log) {
    // Zeroed so a multiply that skips writing C cannot pass on stale data.
    for (int r = 0; r < P_; ++r)
      c_[static_cast<size_t>(r)].assign(
          static_cast<size_t>(c_lay_.local_size(r)), 0.0);
    {
      SpanScope span(rec_, "core.ca3dmm_multiply", parent, id);
      cl_->run([&](Comm& world) {
        const size_t r = static_cast<size_t>(world.rank());
        SpanScope rs(rec_, "core.ca3dmm_multiply.rank", span.id(), id,
                     world.rank());
        ca3dmm::ca3dmm_multiply<double>(world, plan_, false, false, a_lay_,
                                        a_[r].data(), b_lay_, b_[r].data(),
                                        c_lay_, c_[r].data());
      });
    }
    last_ = cl_->aggregate_stats();
    const costmodel::DriftReport rep = costmodel::drift_report(pred_, last_);
    drift_max_ = std::max(drift_max_, drift_max(rep));
    std::string why = drift_failure(rep);
    if (why.empty()) {
      std::vector<double> cr(static_cast<size_t>(fv_.rows()), 0.0);
      for (int r = 0; r < P_; ++r)
        fv_.accumulate(c_lay_, r, c_[static_cast<size_t>(r)].data(), cr);
      why = fv_.check(cr);
    }
    log.fails.record(why.empty(), why);
  }

  int P_ = 0;
  i64 n_ = 0;
  Ca3dmmOptions copt_;
  Machine mach_;
  std::unique_ptr<Cluster> cl_;
  Ca3dmmPlan plan_;
  BlockLayout a_lay_, b_lay_, c_lay_;
  std::vector<std::vector<double>> a_, b_, c_;
  costmodel::Prediction pred_;
  Freivalds fv_;
  RankStats last_;
  double drift_max_ = 0;
};

// ---------------------------------------------------------------------------
// bulk-p16: GEMM-bound multiplies repeated through one PgemmEngine, 1-D
// column user layouts in and out.

class BulkWorkload final : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "bulk-p16"; }

  void setup() override {
    P_ = opt_.smoke ? 4 : 16;
    n_ = opt_.smoke ? 128 : 2048;
    mach_ = machine_with_rpn(4);  // 4 nodes x 4 ranks
    cl_ = std::make_unique<Cluster>(P_, mach_);
    configure(*cl_, opt_.workers);
    a_lay_ = BlockLayout::col_1d(n_, n_, P_);
    b_lay_ = BlockLayout::col_1d(n_, n_, P_);
    c_lay_ = BlockLayout::col_1d(n_, n_, P_);
    const std::uint64_t sa = derive_seed(opt_.seed, 11);
    const std::uint64_t sb = derive_seed(opt_.seed, 12);
    a_.resize(static_cast<size_t>(P_));
    b_.resize(static_cast<size_t>(P_));
    c_.resize(static_cast<size_t>(P_));
    for (int r = 0; r < P_; ++r) {
      fill_local(a_lay_, r, sa, a_[static_cast<size_t>(r)]);
      fill_local(b_lay_, r, sb, b_[static_cast<size_t>(r)]);
      c_[static_cast<size_t>(r)].assign(
          static_cast<size_t>(c_lay_.local_size(r)), 0.0);
    }
    costmodel::Workload w{n_, n_, n_};
    w.custom_layout = true;
    pred_miss_ = costmodel::predict(costmodel::Algo::kCa3dmm, w, P_, mach_);
    w.warm_comms = true;
    pred_hit_ = costmodel::predict(costmodel::Algo::kCa3dmm, w, P_, mach_);
    fv_ = Freivalds(n_, n_, n_, sa, sb, derive_seed(opt_.seed, 13));
    for (auto& s : slot_) s.assign(static_cast<size_t>(P_), RankOp{});
    for (auto& s : cr_)
      s.assign(static_cast<size_t>(P_),
               std::vector<double>(static_cast<size_t>(n_), 0.0));
  }

  void run(const std::vector<TimedPhase>& phases, RunLog& log) override {
    const std::int64_t base_id = next_op_id();
    std::int64_t ops_done = 0;
    double miss_s = 0;
    ca3dmm::engine::EngineStats estats;
    std::vector<double> hit_s;
    cl_->run([&](Comm& world) {
      const int r = world.rank();
      ca3dmm::engine::PgemmEngine eng(world);
      ca3dmm::engine::Request<double> req;
      req.m = req.n = req.k = n_;
      req.a_layout = &a_lay_;
      req.a = a_[static_cast<size_t>(r)].data();
      req.b_layout = &b_lay_;
      req.b = b_[static_cast<size_t>(r)].data();
      req.c_layout = &c_lay_;
      req.c = c_[static_cast<size_t>(r)].data();
      simmpi::RankCtx* ctx = simmpi::current_ctx();

      // Rank 0 drives the phases; the others follow its broadcast command
      // {phase or -1, parent span}. Ops are timed between command
      // broadcasts, and op i is checked after broadcast i+1, when every
      // rank is known to have finished it.
      size_t phase = 0;
      double t_prev = 0, cpu_prev = 0, phase_start = 0, phase_start_cpu = 0;
      std::int64_t span_prev = 0;
      for (std::int64_t i = 0;; ++i) {
        std::int64_t cmd[2] = {-1, 0};
        if (r == 0) {
          const double t = rec_.now();
          const double cpu = process_cpu_s();
          if (i == 1) {  // the cold op just ended: set-up is over
            log.setup_done_s = t;
            log.setup_done_cpu_s = cpu;
            miss_s = t - t_prev;
            phase_start = t;
            phase_start_cpu = cpu;
          } else if (i > 1) {
            log.ops.push_back({static_cast<int>(phase), t - t_prev, cpu - cpu_prev});
            rec_.end(span_prev);
            if (t - phase_start >= phases[phase].seconds) {
              log.window_s.push_back(t - phase_start);
              log.window_cpu_s.push_back(cpu - phase_start_cpu);
              ++phase;
              phase_start = t;
              phase_start_cpu = cpu;
            }
          }
          if (i == 0 || phase < phases.size()) {
            const bool traced = i > 0 && phases[phase].traced;
            rec_.set_enabled(traced);
            span_prev = rec_.begin("op", 0, base_id + i);
            cmd[0] = i == 0 ? 0 : static_cast<std::int64_t>(phase);
            cmd[1] = span_prev;
          } else {
            rec_.set_enabled(false);
          }
          t_prev = t;
          cpu_prev = cpu;
        }
        world.bcast(cmd, 2, 0);
        if (r == 0 && i > 0) check(static_cast<size_t>((i - 1) % 2), log);
        if (cmd[0] < 0) {
          ops_done = i;
          break;
        }

        RankOp& ro = slot_[static_cast<size_t>(i % 2)][static_cast<size_t>(r)];
        double ph0[kPhases];
        std::copy(ctx->stats.phase_s, ctx->stats.phase_s + kPhases, ph0);
        const double clock0 = world.now();
        const i64 base_bytes = ctx->stats.cur_bytes;
        // Per-op peak: restart the high-water mark at the op's entry level.
        ctx->stats.peak_bytes = base_bytes;
        ro.cached = eng.is_cached(n_, n_, n_);
        std::fill(c_[static_cast<size_t>(r)].begin(),
                  c_[static_cast<size_t>(r)].end(), 0.0);
        const double t0 = rec_.now();
        eng.multiply(req);
        const double t1 = rec_.now();
        rec_.add(ro.cached ? "engine.multiply.hit" : "engine.multiply.miss",
                 t0, t1, cmd[1], base_id + i, r);
        if (r == 0 && ro.cached && i > 0) hit_s.push_back(t1 - t0);
        ro.vtime = world.now() - clock0;
        for (int p = 0; p < kPhases; ++p) ro.phase[p] = ctx->stats.phase_s[p] - ph0[p];
        ro.peak = ctx->stats.peak_bytes - base_bytes;
        std::vector<double>& cr = cr_[static_cast<size_t>(i % 2)][static_cast<size_t>(r)];
        std::fill(cr.begin(), cr.end(), 0.0);
        fv_.accumulate(c_lay_, r, c_[static_cast<size_t>(r)].data(), cr);
      }
      if (r == 0) estats = eng.stats();
    });
    for (std::int64_t i = 1; i < ops_done; ++i) next_op_id();

    log.e2e.push_back({"vtime_s", last_.vtime, "s-sim", "one warm multiply"});
    log.e2e.push_back({"peak_rank_mib", last_.peak_bytes / kMiB, "MiB",
                       "max per-rank tracked peak"});
    log.layer.push_back({"engine.miss_s", miss_s, "s", "the cold op (set-up)"});
    if (!hit_s.empty())
      log.layer.push_back({"engine.hit_s", median(hit_s), "s",
                           "rank 0 PgemmEngine::multiply, median"});
    log.layer.push_back({"engine.plan_hit_ratio", estats.plan_hit_rate(),
                         "ratio", ""});
    log.layer.push_back({"engine.pool_hit_ratio", estats.pool.hit_rate(),
                         "ratio", ""});
    log.layer.push_back({"costmodel.drift_max", drift_max_, "ratio",
                         "max per-phase |exec-pred|/max"});
    add_vtime_phases(last_, log.layer);
  }

  std::vector<ProbeCase> probe_cases() override {
    return {ProbeCase{n_, n_, n_, Ca3dmmOptions{}, true, cl_.get()}};
  }

 private:
  struct RankOp {
    double vtime = 0;
    double phase[kPhases] = {};
    i64 peak = 0;
    bool cached = false;
  };

  void check(size_t slot, RunLog& log) {
    RankStats ex;
    bool cached = true;
    for (const RankOp& ro : slot_[slot]) {
      ex.vtime = std::max(ex.vtime, ro.vtime);
      for (int p = 0; p < kPhases; ++p) ex.phase_s[p] = std::max(ex.phase_s[p], ro.phase[p]);
      ex.peak_bytes = std::max(ex.peak_bytes, ro.peak);
      cached = cached && ro.cached;
    }
    const costmodel::DriftReport rep =
        costmodel::drift_report(cached ? pred_hit_ : pred_miss_, ex);
    drift_max_ = std::max(drift_max_, drift_max(rep));
    std::string why = drift_failure(rep);
    if (why.empty()) {
      std::vector<double> cr(static_cast<size_t>(n_), 0.0);
      for (const std::vector<double>& part : cr_[slot])
        for (size_t i = 0; i < cr.size(); ++i) cr[i] += part[i];
      why = fv_.check(cr);
    }
    log.fails.record(why.empty(), why);
    if (cached) last_ = ex;
  }

  int P_ = 0;
  i64 n_ = 0;
  Machine mach_;
  std::unique_ptr<Cluster> cl_;
  BlockLayout a_lay_, b_lay_, c_lay_;
  std::vector<std::vector<double>> a_, b_, c_;
  costmodel::Prediction pred_miss_, pred_hit_;
  Freivalds fv_;
  /// Double-buffered per-rank results of the last two ops.
  std::vector<RankOp> slot_[2];
  std::vector<std::vector<double>> cr_[2];
  RankStats last_;
  double drift_max_ = 0;
};

// ---------------------------------------------------------------------------
// service-mix: one full PgemmService::serve of the loadgen tenant mix.

class ServiceWorkload final : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "service-mix"; }

  void setup() override {
    // P = 16 over 4 nodes: the cost model's exactness domain, where
    // generate_load pins each shape to its drift-gated grid.
    mach_ = machine_with_rpn(4);
    cl_ = std::make_unique<Cluster>(kRanks, mach_);
    configure(*cl_, opt_.workers);
    ca3dmm::service::LoadSpec spec;
    spec.seed = derive_seed(opt_.seed, 21);
    spec.tenants = ca3dmm::service::default_profiles(opt_.smoke ? 4 : 8,
                                                    opt_.smoke ? 3 : 64);
    load_ = ca3dmm::service::generate_load(spec, kRanks);
    // Pool budget: twice the largest predicted peak, as tools/loadgen sets.
    costmodel::CostOracle oracle(kRanks, mach_);
    i64 max_peak = 0;
    for (const ca3dmm::service::ServiceRequest& q : load_.requests) {
      costmodel::Workload w{q.m, q.n, q.k};
      w.force_grid = q.opt.force_grid;
      max_peak = std::max(
          max_peak, oracle.quote(costmodel::Algo::kCa3dmm, w).peak_bytes);
    }
    cfg_.tenants = load_.tenants;
    cfg_.memory_budget_bytes = 2 * max_peak;
  }

  void run(const std::vector<TimedPhase>& phases, RunLog& log) override {
    one_op(next_op_id(), 0, log);
    log.setup_done(rec_.now());
    run_phases(phases, 1, log, [&](bool, std::int64_t id, std::int64_t parent) {
      one_op(id, parent, log);
    });

    std::vector<double> latency, wait;
    i64 completed = 0, rejected = 0;
    for (const ca3dmm::service::RequestRecord& q : rep_.records) {
      if (q.verdict == static_cast<int>(ca3dmm::service::Verdict::kCompleted)) {
        ++completed;
        latency.push_back(q.finish_s - q.arrival_s);
        wait.push_back(q.start_s - q.arrival_s);
      } else if (q.verdict != static_cast<int>(ca3dmm::service::Verdict::kFailed)) {
        ++rejected;
      }
    }
    const double untraced_window =
        log.window_s.size() > kUntraced ? log.window_s[kUntraced] : 0;
    i64 untraced_ops = 0;
    for (const OpRecord& o : log.ops) untraced_ops += o.phase == kUntraced;
    log.e2e.push_back({"vtime_s", rep_.vtime_end, "s-sim", "vtime_end makespan"});
    log.e2e.push_back({"vtime_p99_s", nearest_rank(latency, 0.99), "s-sim",
                       "p99 finish - arrival, all tenants"});
    log.e2e.push_back({"peak_rank_mib", peak_bytes_ / kMiB, "MiB",
                       "max per-rank tracked peak"});
    if (untraced_window > 0)
      log.e2e.push_back({"requests_per_s",
                         static_cast<double>(completed * untraced_ops) /
                             untraced_window,
                         "1/s", "completed requests per host second"});
    log.layer.push_back({"service.queue_wait_p99_s", nearest_rank(wait, 0.99),
                         "s-sim", "p99 start - arrival"});
    log.layer.push_back({"service.reject_frac",
                         rep_.records.empty()
                             ? 0.0
                             : static_cast<double>(rejected) /
                                   static_cast<double>(rep_.records.size()),
                         "ratio", "rejected / requests"});
    log.layer.push_back({"engine.plan_hit_ratio", rep_.engine.plan_hit_rate(),
                         "ratio", "rank 0"});
    log.layer.push_back({"engine.pool_hit_ratio", rep_.engine.pool.hit_rate(),
                         "ratio", "rank 0"});
    double drift = 0;
    for (const ca3dmm::service::TenantMetrics& t : rep_.tenants)
      drift = std::max(drift, t.max_drift);
    log.layer.push_back({"costmodel.drift_max", drift, "ratio",
                         "max request |exec-pred|/max"});
    add_vtime_phases(last_stats_, log.layer);
  }

  std::vector<ProbeCase> probe_cases() override {
    // Each distinct request shape once, with the options the load pins.
    std::vector<ProbeCase> cases;
    for (const ca3dmm::service::ServiceRequest& q : load_.requests) {
      const auto same = [&](const ProbeCase& c) {
        return c.m == q.m && c.n == q.n && c.k == q.k && c.opt == q.opt;
      };
      const auto it = std::find_if(cases.begin(), cases.end(), same);
      if (it != cases.end())
        it->count += q.batch;
      else
        cases.push_back(ProbeCase{q.m, q.n, q.k, q.opt, false, cl_.get(), q.batch});
    }
    return cases;
  }

 private:
  static constexpr int kRanks = 16;

  void one_op(std::int64_t id, std::int64_t parent, RunLog& log) {
    {
      SpanScope span(rec_, "service.serve", parent, id);
      cl_->run([&](Comm& world) {
        SpanScope rs(rec_, "service.serve.rank", span.id(), id, world.rank());
        ca3dmm::service::PgemmService svc(world, cfg_);
        ca3dmm::service::ServiceReport rep = svc.serve(load_.requests);
        if (world.rank() == 0) rep_ = std::move(rep);
      });
    }
    last_stats_ = cl_->aggregate_stats();
    peak_bytes_ = last_stats_.peak_bytes;
    std::string why;
    for (const ca3dmm::service::TenantMetrics& t : rep_.tenants) {
      if (t.failed != 0) why = "tenant " + t.name + " had failed requests";
      else if (!(t.p99_drift <= kDriftRtol && t.p50_drift <= kDriftRtol))
        why = "tenant " + t.name + " p99 drift above 1e-6";
    }
    if (rep_.records.size() != load_.requests.size())
      why = "serve() did not decide every request";
    if (rep_.pool_high_water_bytes > cfg_.memory_budget_bytes)
      why = "engine pool exceeded the memory budget";
    log.fails.record(why.empty(), why);
  }

  Machine mach_;
  std::unique_ptr<Cluster> cl_;
  ca3dmm::service::GeneratedLoad load_;
  ca3dmm::service::ServiceConfig cfg_;
  ca3dmm::service::ServiceReport rep_;
  RankStats last_stats_;
  i64 peak_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// tune-warm: Tuner::tune_into a fresh TuningDb for the four P=32 classes;
// one op tunes all four.

class TuneWorkload final : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "tune-warm"; }

  void setup() override {
    P_ = opt_.smoke ? 8 : 32;
    mach_ = Machine::phoenix_mpi();
    if (opt_.smoke)
      keys_ = {{96, 96, 96}, {48, 48, 384}};
    else
      keys_ = {{192, 192, 192}, {48, 48, 3072}, {3072, 48, 48}, {384, 384, 24}};
    // The tuner is a pure function of (shape, P, machine): this workload
    // has no random input, so the seed changes nothing. (Shuffling the
    // class order by seed was tried; order alone moved the op time ~10%.)
    ca3dmm::tuner::TunerOptions topt;
    topt.backend = Cluster::Backend::kFibers;
    topt.validate = true;
    tuner_ = std::make_unique<ca3dmm::tuner::Tuner>(mach_, topt);
    results_.resize(keys_.size());
  }

  void run(const std::vector<TimedPhase>& phases, RunLog& log) override {
    one_op(next_op_id(), 0, log);
    log.setup_done(rec_.now());
    run_phases(phases, 1, log, [&](bool, std::int64_t id, std::int64_t parent) {
      one_op(id, parent, log);
    });

    double vtime = 0, peak = 0, drift = 0;
    i64 pruned = 0, total = 0, validated = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      const ca3dmm::tuner::TuneResult& res = results_[i];
      const auto [m, n, kk] = keys_[i];
      vtime += res.entry.validated_s;
      pruned += res.candidates_pruned;
      total += res.candidates_total;
      validated += res.candidates_validated;
      const costmodel::Prediction p = costmodel::predict(
          costmodel::Algo::kCa3dmm,
          ca3dmm::tuner::tuned_workload(m, n, kk, res.entry.config,
                                        tuner_->options().min_kblk),
          P_, mach_);
      peak = std::max(peak, p.peak_bytes / kMiB);
      for (const ca3dmm::tuner::CandidateReport& f : res.finalists)
        if (f.validated)
          drift = std::max(drift, std::abs(f.validated_s - f.predicted_s) /
                                      std::max(f.validated_s, f.predicted_s));
    }
    log.e2e.push_back({"vtime_s", vtime, "s-sim",
                       "sum of the winners' validated vtimes"});
    log.e2e.push_back({"peak_rank_mib", peak, "MiB",
                       "max predicted per-rank peak of the winners"});
    log.layer.push_back({"tuner.prune_ratio",
                         total ? static_cast<double>(pruned) / static_cast<double>(total) : 0.0,
                         "ratio", "candidates_pruned / candidates_total"});
    log.layer.push_back({"tuner.validated",
                         static_cast<double>(validated) / static_cast<double>(keys_.size()),
                         "count", "validation runs per key"});
    log.layer.push_back({"tuner.drift_flagged",
                         static_cast<double>(drift_flagged_) / static_cast<double>(tuned_keys_),
                         "count", "validations per key outside the 1e-6 phase gate"});
    log.layer.push_back({"costmodel.drift_max", drift, "ratio",
                         "max finalist total |exec-pred|/max"});
  }

  std::vector<ProbeCase> probe_cases() override {
    if (!probe_cl_) {
      probe_cl_ = std::make_unique<Cluster>(P_, mach_);
      configure(*probe_cl_, opt_.workers);
    }
    std::vector<ProbeCase> cases;
    for (const auto& [m, n, k] : keys_)
      cases.push_back(ProbeCase{m, n, k, Ca3dmmOptions{}, false, probe_cl_.get()});
    return cases;
  }

 private:
  /// One op: every key tuned, in a fixed order, into a fresh TuningDb.
  void one_op(std::int64_t id, std::int64_t parent, RunLog& log) {
    db_ = std::make_unique<ca3dmm::tuner::TuningDb>();
    std::string why;
    for (size_t key = 0; key < keys_.size(); ++key) {
      const std::string w = tune_key(key, id, parent);
      if (why.empty()) why = w;
    }
    log.fails.record(why.empty(), why);
  }

  /// Tunes one key; empty when its checks pass, else what failed.
  std::string tune_key(size_t key, std::int64_t id, std::int64_t parent) {
    const auto [m, n, k] = keys_[key];
    ca3dmm::tuner::TuneResult res;
    {
      SpanScope span(rec_, "tuner.tune_into", parent, id);
      res = tuner_->tune_into(*db_, m, n, k, P_);
    }
    // The winner must be validated and drift-clean. Losing finalists may be
    // flagged (uneven shapes misattribute time between phases); the tuner
    // already refuses those, so they are counted, not failed.
    std::string why;
    bool winner_seen = false;
    for (const ca3dmm::tuner::CandidateReport& f : res.finalists) {
      drift_flagged_ += f.validated && !f.drift_ok;
      if (f.config == res.entry.config && f.validated && f.drift_ok) winner_seen = true;
    }
    ++tuned_keys_;
    if (!winner_seen) why = "winner is not a drift-ok validated finalist";
    if (!(res.entry.validated_s > 0 && res.entry.validated_s <= res.heuristic_s))
      why = "winner slower than the heuristic";
    // The search is a pure function of the key: every op must agree with
    // the key's first result.
    if (key < reference_.size()) {
      const ca3dmm::tuner::TuningEntry& ref = reference_[key];
      if (!(res.entry.config == ref.config && res.entry.validated_s == ref.validated_s))
        why = "result differs from the key's first";
    } else if (key == reference_.size()) {
      reference_.push_back(res.entry);
    }
    if (!db_->find(res.entry.key)) why = "tuned key missing from the TuningDb";
    results_[key] = std::move(res);
    return why;
  }

  int P_ = 0;
  Machine mach_;
  std::vector<std::tuple<i64, i64, i64>> keys_;
  std::unique_ptr<ca3dmm::tuner::Tuner> tuner_;
  std::unique_ptr<ca3dmm::tuner::TuningDb> db_;
  std::vector<ca3dmm::tuner::TuneResult> results_;
  std::unique_ptr<Cluster> probe_cl_;
  std::vector<ca3dmm::tuner::TuningEntry> reference_;  ///< each key's first result
  i64 drift_flagged_ = 0, tuned_keys_ = 0;
};

// ---------------------------------------------------------------------------
// Layer probes.

/// Host seconds per call of `fn`, repeated until `min_s` has elapsed.
template <typename Fn>
double per_call(Fn&& fn, double min_s = 0.02) {
  const Clock::time_point t0 = Clock::now();
  int calls = 0;
  double el = 0;
  do {
    fn();
    ++calls;
    el = seconds_since(t0);
  } while (el < min_s);
  return el / calls;
}

/// Runs `body` on every rank between two world barriers and returns the
/// host seconds rank 0 saw between them; `prep` builds each rank's state
/// beforehand, outside the timed region.
template <typename Prep, typename Body>
double timed_region(Cluster& cl, SpanRecorder& rec, const char* name,
                    std::int64_t parent, Prep&& prep, Body&& body) {
  double t0 = 0, t1 = 0;
  cl.run([&](Comm& world) {
    auto state = prep(world);
    world.barrier();
    if (world.rank() == 0) t0 = rec.now();
    body(world, state);
    world.barrier();
    if (world.rank() == 0) t1 = rec.now();
  });
  rec.add(name, t0, t1, parent, -1);
  return t1 - t0;
}

struct ProbeSums {
  double spawn = 0, split = 0, coll = 0, coll_bytes = 0, small_us = 0,
         native = 0, redist = 0, redist_bytes = 0, gemm = 0, gemm_flops = 0,
         plan = 0, predict = 0;
};

void probe_case(const ProbeCase& pc, SpanRecorder& rec, std::int64_t parent,
                ProbeSums& s) {
  Cluster& cl = *pc.cluster;
  const int P = cl.nranks();
  const Ca3dmmPlan plan = Ca3dmmPlan::make(pc.m, pc.n, pc.k, P, pc.opt);

  {  // simmpi: spawn P fibers that do nothing
    const double t0 = rec.now();
    cl.run([](Comm&) {});
    s.spawn += rec.now() - t0;
    rec.add("simmpi.spawn", t0, rec.now(), parent, -1);
  }
  s.split += timed_region(
      cl, rec, "simmpi.split", parent, [](Comm&) { return 0; },
      [&](Comm& world, int) { ca3dmm::PlanComms::make(world, plan); });

  // Replication all-gather + partial-C reduce-scatter with the plan's counts.
  struct CollState {
    ca3dmm::PlanComms comms;
    std::vector<i64> gather_bytes, reduce_counts;
    std::vector<double> send, recv, packed, result;
    int gc = 0, gk = 0;
  };
  double bytes = 0;
  s.coll += timed_region(
      cl, rec, "simmpi.coll", parent,
      [&](Comm& world) {
        CollState st;
        st.comms = ca3dmm::PlanComms::make(world, plan);
        const ca3dmm::RankCoord co = plan.coord(world.rank());
        if (!co.active) return st;
        if (pc.opt.coll) {
          if (st.comms.repl.valid()) st.comms.repl.set_collective_config(*pc.opt.coll);
          if (st.comms.reduce.valid()) st.comms.reduce.set_collective_config(*pc.opt.coll);
        }
        const i64 mb = plan.m_range(co.I).size(), nb = plan.n_range(co.J).size();
        st.gc = co.gc;
        st.gk = co.gk;
        if (plan.c() > 1) {
          i64 sum = 0;
          for (int g = 0; g < plan.c(); ++g) {
            const i64 b = plan.replicates_a()
                              ? mb * plan.ksub(co.gk, co.j, g).size() * 8
                              : plan.ksub(co.gk, co.i, g).size() * nb * 8;
            st.gather_bytes.push_back(b);
            sum += b;
          }
          st.send.assign(static_cast<size_t>(st.gather_bytes[static_cast<size_t>(co.gc)] / 8), 1.0);
          st.recv.assign(static_cast<size_t>(sum / 8), 0.0);
        }
        if (plan.grid().pk > 1) {
          for (int g = 0; g < plan.grid().pk; ++g)
            st.reduce_counts.push_back(mb * plan.c_sub_cols(co.J, g).size());
          st.packed.assign(static_cast<size_t>(mb * nb), 1.0);
          st.result.assign(static_cast<size_t>(st.reduce_counts[static_cast<size_t>(co.gk)]), 0.0);
        }
        return st;
      },
      [&](Comm&, CollState& st) {
        if (!st.gather_bytes.empty())
          st.comms.repl.allgatherv_bytes(st.send.data(),
                                         st.gather_bytes[static_cast<size_t>(st.gc)],
                                         st.recv.data(), st.gather_bytes);
        if (!st.reduce_counts.empty())
          st.comms.reduce.reduce_scatter(st.packed.data(), st.result.data(),
                                         st.reduce_counts);
      });
  for (int r = 0; r < P; ++r) {  // bytes those calls copy, computed
    const ca3dmm::RankCoord co = plan.coord(r);
    if (!co.active) continue;
    const i64 mb = plan.m_range(co.I).size(), nb = plan.n_range(co.J).size();
    if (plan.c() > 1)
      bytes += 8.0 * static_cast<double>(plan.replicates_a()
                                             ? mb * plan.kpart(co.gk, co.j).size()
                                             : plan.kpart(co.gk, co.i).size() * nb);
    if (plan.grid().pk > 1) bytes += 8.0 * static_cast<double>(mb * nb);
  }
  s.coll_bytes += bytes;

  const int reps = std::clamp(8192 / P, 4, 256);
  s.small_us += 1e6 / reps *
                timed_region(
                    cl, rec, "simmpi.small_coll", parent, [](Comm&) { return 0; },
                    [&](Comm& world, int) {
                      double in[8] = {1, 2, 3, 4, 5, 6, 7, 8}, out[8];
                      for (int i = 0; i < reps; ++i) {
                        world.allreduce(in, out, 8);
                        world.barrier();
                      }
                    });

  {  // layout: every rank rebuilds the three native layouts per multiply
    const double t0 = rec.now();
    s.native += P * per_call([&] {
      const BlockLayout a = plan.a_native(), b = plan.b_native(), c = plan.c_native();
      if (a.nranks() + b.nranks() + c.nranks() != 3 * P) throw std::logic_error("layout");
    });
    rec.add("layout.native", t0, rec.now(), parent, -1);
  }

  const BlockLayout a_nat = plan.a_native(), b_nat = plan.b_native(),
                    c_nat = plan.c_native();
  const BlockLayout a_usr = pc.col1d ? BlockLayout::col_1d(pc.m, pc.k, P) : a_nat;
  const BlockLayout b_usr = pc.col1d ? BlockLayout::col_1d(pc.k, pc.n, P) : b_nat;
  const BlockLayout c_usr = pc.col1d ? BlockLayout::col_1d(pc.m, pc.n, P) : c_nat;
  struct RedistState {
    std::vector<double> a, b, a_out, b_out, c_in, c_out;
  };
  s.redist += timed_region(
      cl, rec, "layout.redistribute", parent,
      [&](Comm& world) {
        const int r = world.rank();
        RedistState st;
        fill_local(a_usr, r, 1, st.a);
        fill_local(b_usr, r, 2, st.b);
        fill_local(c_nat, r, 3, st.c_in);
        st.a_out.resize(static_cast<size_t>(a_nat.local_size(r)));
        st.b_out.resize(static_cast<size_t>(b_nat.local_size(r)));
        st.c_out.resize(static_cast<size_t>(c_usr.local_size(r)));
        return st;
      },
      [&](Comm& world, RedistState& st) {
        ca3dmm::redistribute<double>(world, a_usr, st.a.data(), a_nat, st.a_out.data());
        ca3dmm::redistribute<double>(world, b_usr, st.b.data(), b_nat, st.b_out.data());
        ca3dmm::redistribute<double>(world, c_nat, st.c_in.data(), c_usr, st.c_out.data());
      });
  for (const auto& [src, dst] : {std::pair{&a_usr, &a_nat}, std::pair{&b_usr, &b_nat},
                                 std::pair{&c_nat, &c_usr}}) {
    const ca3dmm::RedistVolume v = ca3dmm::redistribution_volume(*src, *dst, false, 8);
    for (i64 b : v.send_staging_bytes) s.redist_bytes += static_cast<double>(b);
  }

  {  // linalg: one rank's whole local GEMM, x active ranks
    const i64 mb = plan.m_range(0).size(), nb = plan.n_range(0).size(),
              kb = plan.k_range(0).size();
    std::vector<double> a(static_cast<size_t>(mb * kb)), b(static_cast<size_t>(kb * nb)),
        c(static_cast<size_t>(mb * nb));
    for (size_t i = 0; i < a.size(); ++i) a[i] = ca3dmm::matrix_entry<double>(4, 0, static_cast<i64>(i));
    for (size_t i = 0; i < b.size(); ++i) b[i] = ca3dmm::matrix_entry<double>(5, 0, static_cast<i64>(i));
    const auto gemm = [&] {
      ca3dmm::gemm_blocked<double>(false, false, mb, nb, kb, 1.0, a.data(), b.data(), c.data());
    };
    gemm();  // untimed: faults in c and warms the caches, as in a multiply
    const double t0 = rec.now();
    const double call = per_call(gemm);
    rec.add("linalg.gemm_blocked", t0, rec.now(), parent, -1);
    s.gemm += call * plan.active();
    s.gemm_flops += ca3dmm::gemm_flops(mb, nb, kb) * plan.active();
  }
  {
    const double t0 = rec.now();
    s.plan += per_call([&] { Ca3dmmPlan::make(pc.m, pc.n, pc.k, P, pc.opt); });
    rec.add("core.plan", t0, rec.now(), parent, -1);
  }
  {
    costmodel::Workload w{pc.m, pc.n, pc.k};
    w.custom_layout = pc.col1d;
    w.force_grid = pc.opt.force_grid;
    w.min_kblk = pc.opt.min_kblk;
    w.overlap = pc.opt.overlap;
    if (pc.opt.coll) w.coll = *pc.opt.coll;
    const double t0 = rec.now();
    s.predict += per_call([&] {
      costmodel::predict(costmodel::Algo::kCa3dmm, w, P, cl.topology());
    });
    rec.add("costmodel.predict", t0, rec.now(), parent, -1);
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig3-p3072", "bulk-p16",
                                                 "service-mix", "tune-warm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt,
                                        SpanRecorder& rec) {
  if (name == "fig3-p3072") return std::make_unique<Fig3Workload>(opt, rec);
  if (name == "bulk-p16") return std::make_unique<BulkWorkload>(opt, rec);
  if (name == "service-mix") return std::make_unique<ServiceWorkload>(opt, rec);
  if (name == "tune-warm") return std::make_unique<TuneWorkload>(opt, rec);
  return nullptr;
}

Metrics run_probes(Workload& w, SpanRecorder& rec, int reps, double op_cpu_s) {
  rec.set_enabled(true);
  const std::vector<ProbeCase> cases = w.probe_cases();
  const double per_op = 1.0 / w.ops_per_probe_set();
  std::map<std::string, std::vector<double>> samples;
  for (int rep = 0; rep < reps; ++rep) {
    SpanScope set(rec, "probe", 0, -1);
    ProbeSums s;
    for (const ProbeCase& pc : cases) probe_case(pc, rec, set.id(), s);
    samples["simmpi.spawn_s"].push_back(s.spawn * per_op);
    samples["simmpi.split_s"].push_back(s.split * per_op);
    samples["simmpi.coll_s"].push_back(s.coll * per_op);
    samples["simmpi.coll_gbps"].push_back(s.coll > 0 ? s.coll_bytes / s.coll / 1e9 : 0);
    samples["simmpi.small_coll_us"].push_back(s.small_us / static_cast<double>(cases.size()));
    samples["layout.native_cpu_s"].push_back(s.native * per_op);
    samples["layout.redistribute_s"].push_back(s.redist * per_op);
    samples["linalg.gemm_s"].push_back(s.gemm * per_op);
    samples["linalg.gemm_gflops"].push_back(s.gemm > 0 ? s.gemm_flops / s.gemm / 1e9 : 0);
    samples["core.plan_s"].push_back(s.plan * per_op);
    samples["costmodel.predict_s"].push_back(s.predict * per_op);
    if (rep == 0) {
      samples["simmpi.coll_bytes"].push_back(s.coll_bytes * per_op);
      samples["layout.redistribute_bytes"].push_back(s.redist_bytes * per_op);
    }
  }

  // The plain serial baseline: every product the op computes, one thread.
  double baseline = 0;
  {
    SpanScope span(rec, "linalg.baseline", 0, -1);
    for (const ProbeCase& pc : cases) {
      std::vector<double> a(static_cast<size_t>(pc.m * pc.k)),
          b(static_cast<size_t>(pc.k * pc.n)), c(static_cast<size_t>(pc.m * pc.n));
      for (size_t i = 0; i < a.size(); ++i) a[i] = ca3dmm::matrix_entry<double>(6, 0, static_cast<i64>(i));
      for (size_t i = 0; i < b.size(); ++i) b[i] = ca3dmm::matrix_entry<double>(7, 0, static_cast<i64>(i));
      baseline += pc.count * per_call([&] {
        ca3dmm::gemm_blocked<double>(false, false, pc.m, pc.n, pc.k, 1.0, a.data(), b.data(), c.data());
      });
    }
  }
  rec.set_enabled(false);

  static const struct {
    const char* name;
    const char* unit;
    const char* note;
  } kOrder[] = {
      {"simmpi.spawn_s", "s", "Cluster::run, empty body"},
      {"simmpi.split_s", "s", "PlanComms::make"},
      {"simmpi.coll_s", "s", "replication allgatherv + reduce-scatter"},
      {"simmpi.coll_bytes", "B", "computed from the plan's counts"},
      {"simmpi.coll_gbps", "GB/s", "coll_bytes / coll_s"},
      {"simmpi.small_coll_us", "us", "8-double allreduce + barrier"},
      {"layout.native_cpu_s", "s", "a/b/c_native on one rank x P"},
      {"layout.redistribute_s", "s", "A, B user->native, C native->user"},
      {"layout.redistribute_bytes", "B", "computed staging bytes, self included"},
      {"linalg.gemm_s", "s", "one rank's local GEMM x active ranks, 1 thread"},
      {"linalg.gemm_gflops", "GFLOP/s", "per thread"},
      {"core.plan_s", "s", "Ca3dmmPlan::make"},
      {"costmodel.predict_s", "s", "predict()"},
  };
  Metrics out;
  for (const auto& m : kOrder)
    out.push_back({m.name, median(samples.at(m.name)), m.unit, m.note});
  out.push_back({"linalg.baseline_s", baseline * per_op, "s",
                 "serial gemm_blocked of each product, 1 thread"});
  out.push_back({"core.sim_overhead_x", baseline > 0 ? op_cpu_s / (baseline * per_op) : 0,
                 "x", "untraced op host CPU-s / linalg.baseline_s"});
  return out;
}

}  // namespace perfbench
