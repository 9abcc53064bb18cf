#include "tuner/tuner.hpp"

#include <algorithm>
#include <optional>
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
  // kAuto so the candidate set has no cost-identical duplicates. The
  // schedules of one (grid, overlap) share a program: predict_each builds
  // it once and replays it per schedule.
  const simmpi::Topology topo = simmpi::Topology::homogeneous(nranks, mach_);
  const CollAlgo algos[] = {CollAlgo::kAuto, CollAlgo::kPaperButterfly,
                            CollAlgo::kRing, CollAlgo::kRecursive,
                            CollAlgo::kHierarchical};
  std::vector<CandidateReport> cands;
  std::vector<std::optional<CollectiveConfig>> colls;
  for (const ProcGrid& g : grids) {
    for (bool ov : {true, false}) {
      const size_t first = cands.size();
      colls.clear();
      for (CollAlgo ag : algos) {
        if (g.c() == 1 && ag != CollAlgo::kAuto) continue;
        for (CollAlgo rs : algos) {
          if (g.pk == 1 && rs != CollAlgo::kAuto) continue;
          CandidateReport& r = cands.emplace_back();
          r.config.grid = g;
          r.config.coll = CollectiveConfig::tuned();
          r.config.coll.allgather = ag;
          r.config.coll.reduce_scatter = rs;
          r.config.overlap = ov;
          colls.push_back(r.config.coll);
        }
      }
      const std::vector<costmodel::Prediction> preds =
          costmodel::predict_each(
              Algo::kCa3dmm,
              tuned_workload(m, n, k, cands[first].config, opt_.min_kblk),
              nranks, topo, colls);
      for (size_t i = 0; i < preds.size(); ++i) {
        cands[first + i].prediction = preds[i];
        cands[first + i].predicted_s = preds[i].t_total;
      }
    }
  }
  std::sort(cands.begin(), cands.end(), report_less);
  res.candidates_total = static_cast<i64>(cands.size());

  // ---- finalists: the heuristic plus the top-K predictions ----
  // The heuristic is a candidate (the solver grid, kAuto on both axes).
  const auto heur = std::find_if(
      cands.begin(), cands.end(),
      [&](const CandidateReport& c) { return c.config == heuristic; });
  CA_ASSERT(heur != cands.end());
  std::vector<CandidateReport> finalists{*heur};
  for (const CandidateReport& c : cands) {
    if (static_cast<int>(finalists.size()) > opt_.top_k) break;
    if (c.config == heuristic) continue;
    finalists.push_back(c);
  }

  // ---- validate with real traced runs under the drift gate: one cluster
  // and one set of operands for every finalist, each joined against the
  // prediction it was ranked by ----
  if (opt_.validate) {
    Cluster cl(nranks, mach_);
    cl.set_trace(true);
    const costmodel::Operands ops(m, n, k);
    for (CandidateReport& f : finalists) {
      const simmpi::RankStats executed = costmodel::run_workload(
          Algo::kCa3dmm, tuned_workload(m, n, k, f.config, opt_.min_kblk), ops,
          cl);
      res.validation_profile += cl.host_profile();
      const DriftReport rep = costmodel::drift_report(
          f.prediction, executed, DriftOptions{opt_.drift_rtol, 1e-12});
      f.validated = true;
      f.validated_s = rep.total.executed_s;
      f.drift_ok = rep.ok();
    }
  }
  res.candidates_validated =
      opt_.validate ? static_cast<i64>(finalists.size()) : 0;
  // Every candidate but the top-K finalists was pruned on its prediction
  // alone; the heuristic's own candidate counts as pruned too (it is
  // validated as the baseline, not promoted).
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
