#include "costmodel/drift.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ca3dmm::costmodel {

namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Phase;
using simmpi::RankStats;

PhaseDrift join(const char* name, double pred, double exec,
                const DriftOptions& o) {
  PhaseDrift d;
  d.name = name;
  d.predicted_s = pred;
  d.executed_s = exec;
  const double scale = std::max(std::abs(pred), std::abs(exec));
  const double diff = std::abs(exec - pred);
  d.rel = scale > 0 ? diff / scale : 0.0;
  d.flagged = diff > o.atol_seconds + o.rtol * scale;
  return d;
}

}  // namespace

bool DriftReport::ok() const {
  if (total.flagged || peak_bytes_flagged) return false;
  for (const PhaseDrift& d : phases)
    if (d.flagged) return false;
  return true;
}

std::string DriftReport::table() const {
  std::string out =
      strprintf("%-14s %14s %14s %10s  %s\n", "phase", "predicted ms",
                "executed ms", "drift", "gate");
  const auto row = [&](const PhaseDrift& d) {
    if (d.predicted_s == 0 && d.executed_s == 0) return;
    out += strprintf("%-14s %14.6f %14.6f %9.4f%%  %s\n", d.name,
                     d.predicted_s * 1e3, d.executed_s * 1e3, d.rel * 100.0,
                     d.flagged ? "FAIL" : "ok");
  };
  for (const PhaseDrift& d : phases) row(d);
  row(total);
  out += strprintf("%-14s %14lld %14lld %10s  %s\n", "peak bytes",
                   static_cast<long long>(peak_bytes_predicted),
                   static_cast<long long>(peak_bytes_executed), "",
                   peak_bytes_flagged ? "FAIL" : "ok");
  return out;
}

DriftReport drift_report(const Prediction& pred, const RankStats& executed,
                         const DriftOptions& opts) {
  DriftReport rep;
  rep.opts = opts;
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p)
    rep.phases.push_back(join(simmpi::phase_name(static_cast<Phase>(p)),
                              pred.phase_s[p], executed.phase_s[p], opts));
  rep.total = join("total", pred.t_total, executed.vtime, opts);
  rep.peak_bytes_predicted = pred.peak_bytes;
  rep.peak_bytes_executed = executed.peak_bytes;
  rep.peak_bytes_flagged = pred.peak_bytes != executed.peak_bytes;
  return rep;
}

Operands::Operands(i64 m_, i64 n_, i64 k_) : m(m_), n(n_), k(k_) {
  const auto fill = [](std::uint64_t seed, i64 rows, i64 cols,
                       std::vector<double>& g) {
    g.resize(static_cast<size_t>(rows * cols));
    for (i64 i = 0; i < rows; ++i)
      for (i64 j = 0; j < cols; ++j)
        g[static_cast<size_t>(i * cols + j)] =
            matrix_entry<double>(seed, i, j);
  };
  fill(1, m, k, a);
  fill(2, k, n, b);
}

void slice_local(const BlockLayout& layout, int rank,
                 const std::vector<double>& global, std::vector<double>& buf) {
  CA_ASSERT(static_cast<i64>(global.size()) == layout.rows() * layout.cols());
  buf.clear();
  buf.reserve(static_cast<size_t>(layout.local_size(rank)));
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i) {
      const auto row = global.begin() + i * layout.cols();
      buf.insert(buf.end(), row + r.c.lo, row + r.c.hi);
    }
}

RankStats run_workload(Algo algo, const Workload& w, Cluster& cl) {
  return run_workload(algo, w, Operands(w.m, w.n, w.k), cl);
}

RankStats run_workload(Algo algo, const Workload& w, const Operands& ops,
                       Cluster& cl) {
  CA_REQUIRE(w.esize == static_cast<i64>(sizeof(double)),
             "run_workload executes doubles, got esize %lld",
             static_cast<long long>(w.esize));
  CA_REQUIRE(ops.m == w.m && ops.n == w.n && ops.k == w.k,
             "run_workload: operands are %lldx%lldx%lld, the workload "
             "%lldx%lldx%lld",
             static_cast<long long>(ops.m), static_cast<long long>(ops.n),
             static_cast<long long>(ops.k), static_cast<long long>(w.m),
             static_cast<long long>(w.n), static_cast<long long>(w.k));
  // The program predict() replays, run by run_plan (every algorithm's
  // executor), which binds the plan's own layouts.
  const Program pg = program_of(algo, w, cl.nranks());
  const BlockLayout& la = pg.layouts[kUserLayoutA];
  const BlockLayout& lb = pg.layouts[kUserLayoutB];
  const BlockLayout& lc = pg.layouts[kUserLayoutC];
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    slice_local(la, me, ops.a, a);
    slice_local(lb, me, ops.b, b);
    std::vector<double> c(static_cast<size_t>(lc.local_size(me)));
    std::visit(
        [&](const auto& plan) {
          run_plan(world, plan, false, false, la, a.data(), lb, b.data(), lc,
                   c.data());
        },
        pg.plan);
  });
  return cl.aggregate_stats();
}

DriftReport check_drift(Algo algo, const Workload& w, Cluster& cl,
                        const DriftOptions& opts) {
  const RankStats executed = run_workload(algo, w, cl);
  const Prediction pred = predict(algo, w, cl.nranks(), cl.topology());
  return drift_report(pred, executed, opts);
}

}  // namespace ca3dmm::costmodel
