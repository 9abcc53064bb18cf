#include "tuner/tuner.hpp"

#include <algorithm>
#include <tuple>

namespace ca3dmm::tuner {

using costmodel::Algo;
using costmodel::DriftOptions;
using costmodel::DriftReport;
using costmodel::Workload;
using simmpi::CollAlgo;
using simmpi::CollectiveConfig;
using simmpi::Cluster;

costmodel::Workload tuned_workload(i64 m, i64 n, i64 k,
                                   const TunedConfig& cfg, i64 min_kblk) {
  Ca3dmmOptions opt;
  opt.min_kblk = min_kblk;
  return Workload(m, n, k, cfg.applied_to(opt));
}

namespace {

/// Deterministic candidate ordering beyond predicted time, so equal
/// predictions never make the search depend on enumeration order.
auto config_order(const TunedConfig& c) {
  return std::make_tuple(c.grid.pm, c.grid.pn, c.grid.pk,
                         static_cast<int>(c.coll.allgather),
                         static_cast<int>(c.coll.reduce_scatter),
                         !c.overlap);
}

bool report_less(const CandidateReport& a, const CandidateReport& b) {
  return std::make_tuple(a.predicted_s, config_order(a.config)) <
         std::make_tuple(b.predicted_s, config_order(b.config));
}

}  // namespace

TuneResult Tuner::tune(i64 m, i64 n, i64 k, int nranks) const {
  TuneResult res;
  const TuningKey key = make_key(m, n, k, nranks, mach_);

  const std::vector<ProcGrid> grids = find_grid_candidates(
      m, n, k, nranks, std::max(1, opt_.grid_candidates), GridOptions{});
  CA_ASSERT(!grids.empty());

  // The auto heuristic the engine runs without a DB: eq.-solver grid, the
  // collective engine's kAuto schedule picker, overlap on. It is both the
  // baseline to beat and the unconditional fallback.
  TunedConfig heuristic;
  heuristic.grid = grids.front();
  heuristic.coll = CollectiveConfig::tuned();
  heuristic.overlap = true;

  // ---- enumerate + prune on predictions ----
  // The allgather schedule only matters when the grid replicates (c > 1)
  // and the reduce-scatter one only when pk > 1; degenerate axes stay on
  // kAuto so the candidate set has no cost-identical duplicates.
  const CollAlgo algos[] = {CollAlgo::kAuto, CollAlgo::kPaperButterfly,
                            CollAlgo::kRing, CollAlgo::kRecursive,
                            CollAlgo::kHierarchical};
  std::vector<CandidateReport> cands;
  for (const ProcGrid& g : grids) {
    for (CollAlgo ag : algos) {
      if (g.c() == 1 && ag != CollAlgo::kAuto) continue;
      for (CollAlgo rs : algos) {
        if (g.pk == 1 && rs != CollAlgo::kAuto) continue;
        for (bool ov : {true, false}) {
          CandidateReport r;
          r.config.grid = g;
          r.config.coll = CollectiveConfig::tuned();
          r.config.coll.allgather = ag;
          r.config.coll.reduce_scatter = rs;
          r.config.overlap = ov;
          r.predicted_s =
              costmodel::predict(Algo::kCa3dmm,
                                 tuned_workload(m, n, k, r.config, opt_.min_kblk),
                                 nranks, mach_)
                  .t_total;
          cands.push_back(r);
        }
      }
    }
  }
  std::sort(cands.begin(), cands.end(), report_less);
  res.candidates_total = static_cast<i64>(cands.size());

  // ---- finalists: the heuristic plus the top-K predictions ----
  std::vector<CandidateReport> finalists;
  CandidateReport heur_report;
  heur_report.config = heuristic;
  heur_report.predicted_s =
      costmodel::predict(Algo::kCa3dmm,
                         tuned_workload(m, n, k, heuristic, opt_.min_kblk),
                         nranks, mach_)
          .t_total;
  finalists.push_back(heur_report);
  for (const CandidateReport& c : cands) {
    if (static_cast<int>(finalists.size()) > opt_.top_k) break;
    if (c.config == heuristic) continue;
    finalists.push_back(c);
  }

  // ---- validate with real traced runs under the drift gate ----
  for (CandidateReport& f : finalists) {
    if (!opt_.validate) {
      f.validated_s = 0;
      f.drift_ok = true;
      continue;
    }
    Cluster cl(nranks, mach_);
    cl.set_trace(true);
    const DriftReport rep = costmodel::check_drift(
        Algo::kCa3dmm, tuned_workload(m, n, k, f.config, opt_.min_kblk), cl,
        DriftOptions{opt_.drift_rtol, 1e-12});
    f.validated = true;
    f.validated_s = rep.total.executed_s;
    f.drift_ok = rep.ok();
  }
  res.candidates_validated =
      opt_.validate ? static_cast<i64>(finalists.size()) : 0;
  // Everything enumerated but not promoted to finalist was pruned on its
  // prediction alone (the heuristic finalist is not drawn from cands).
  res.candidates_pruned =
      res.candidates_total - static_cast<i64>(finalists.size()) + 1;
  res.heuristic_s =
      opt_.validate ? finalists[0].validated_s : finalists[0].predicted_s;

  // ---- winner: smallest measured vtime among drift-clean finalists; the
  // heuristic wins ties, so a DB hit is never slower than no DB ----
  const auto measure = [&](const CandidateReport& f) {
    return opt_.validate ? f.validated_s : f.predicted_s;
  };
  size_t win = 0;  // the heuristic
  for (size_t idx = 1; idx < finalists.size(); ++idx) {
    if (opt_.validate && !finalists[idx].drift_ok) continue;
    if (measure(finalists[idx]) < measure(finalists[win])) win = idx;
  }
  res.winner_is_heuristic = win == 0;

  res.entry.key = key;
  res.entry.rep_m = m;
  res.entry.rep_n = n;
  res.entry.rep_k = k;
  res.entry.config = finalists[win].config;
  res.entry.predicted_s = finalists[win].predicted_s;
  res.entry.validated_s = finalists[win].validated_s;
  res.entry.baseline_s = res.heuristic_s;
  res.entry.candidates_pruned = res.candidates_pruned;
  res.entry.candidates_validated = res.candidates_validated;
  res.finalists = std::move(finalists);
  return res;
}

TuneResult Tuner::tune_into(TuningDb& db, i64 m, i64 n, i64 k,
                            int nranks) const {
  TuneResult res = tune(m, n, k, nranks);
  db.put(res.entry);
  return res;
}

}  // namespace ca3dmm::tuner
