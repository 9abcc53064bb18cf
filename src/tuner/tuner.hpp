// Profile-guided auto-tuner.
//
// The paper fixes its configuration analytically: the eq.-solver grid, the
// butterfly collective schedule, overlap always on. PR 3 made the schedule
// pluggable and PR 5 pinned the cost model to executed virtual time within
// 1e-6 — together those turn configuration selection into a search problem
// with a trustworthy objective. The Tuner searches, per (shape-class,
// topology) key, the cross-product
//
//     process grid (candidates around the eq.-solver optimum, which
//                   subsumes the replication factor c = max(pm,pn)/min)
//   x collective schedule for the replication all-gather and the partial-C
//     reduce-scatter (the two §III-D collectives that dominate)
//   x communication/computation overlap on/off
//
// prunes the bulk of it with costmodel::predict_each (one program build per
// grid and overlap, replayed per collective schedule), then validates the
// top-K finalists (always including the auto heuristic the engine would use
// without a DB) with real traced simmpi runs under the drift gate, all on
// one Cluster with operands generated once per call. The
// winner is the finalist with the smallest *executed* vtime whose
// prediction stayed inside the gate — so a tuned config is never slower
// than the heuristic by construction, and its recorded vtime is evidence,
// not an estimate. Results persist in a TuningDb (db.hpp).
#pragma once

#include "costmodel/drift.hpp"
#include "simmpi/cluster.hpp"
#include "tuner/db.hpp"

namespace ca3dmm::tuner {

struct TunerOptions {
  /// Process-grid candidates taken from find_grid_candidates (the solver's
  /// top-ranked feasible grids; index 0 is find_grid's own choice).
  int grid_candidates = 6;
  /// Finalists validated with real runs, beyond the always-validated auto
  /// heuristic baseline.
  int top_k = 4;
  /// Drift gate on every validation run: a finalist whose executed vtime
  /// disagrees with its prediction by more than this is disqualified (the
  /// model evidently does not describe it, so its numbers cannot be
  /// compared). DriftOptions semantics.
  double drift_rtol = 1e-6;
  /// false = trust predictions, skip the validation runs entirely
  /// (validated_s stays 0). For tests and very cheap warming; the
  /// never-slower guarantee then rests on the model alone.
  bool validate = true;
  /// Selects nothing: validation clusters run their ranks as fibers like
  /// every Cluster. Kept only for callers that still set it.
  simmpi::Cluster::Backend backend = simmpi::Cluster::Backend::kFibers;
  i64 min_kblk = 192;  ///< passed through to every candidate
};

/// One searched candidate with its outcome, for --dump style reporting.
struct CandidateReport {
  TunedConfig config{};
  double predicted_s = 0;  ///< prediction.t_total
  /// The model's prediction the candidate was ranked by; its validation run
  /// is drift-checked against it.
  costmodel::Prediction prediction{};
  double validated_s = 0;  ///< 0 = pruned before validation
  bool validated = false;
  bool drift_ok = true;    ///< meaningful only when validated
};

struct TuneResult {
  TuningEntry entry;  ///< the winner, as stored in the DB
  i64 candidates_total = 0;
  i64 candidates_pruned = 0;     ///< rejected on predictions alone
  i64 candidates_validated = 0;  ///< includes the heuristic baseline
  /// Executed (or predicted, when validate = false) vtime of the auto
  /// heuristic: solver grid + kAuto schedules + overlap on.
  double heuristic_s = 0;
  bool winner_is_heuristic = false;
  std::vector<CandidateReport> finalists;  ///< validation detail
  /// Host counters of the validation runs, summed. They share one Cluster,
  /// so `stacks_mapped` is nranks (0 with validate = false).
  simmpi::HostProfile validation_profile{};
};

class Tuner {
 public:
  Tuner(const simmpi::Machine& mach, TunerOptions opt = {})
      : mach_(mach), opt_(opt) {}

  /// Searches and validates one shape on `nranks` ranks. Pure function of
  /// (shape, nranks, machine, options) — deterministic.
  TuneResult tune(i64 m, i64 n, i64 k, int nranks) const;

  /// tune() + db.put() of the winner.
  TuneResult tune_into(TuningDb& db, i64 m, i64 n, i64 k, int nranks) const;

  const TunerOptions& options() const { return opt_; }
  const simmpi::Machine& machine() const { return mach_; }

 private:
  simmpi::Machine mach_;
  TunerOptions opt_;
};

/// The workload a TunedConfig prescribes for (m, n, k): default options
/// with `min_kblk`, under TunedConfig::applied_to — the same application
/// the engine's plan miss and the service's quote make.
costmodel::Workload tuned_workload(i64 m, i64 n, i64 k,
                                   const TunedConfig& cfg, i64 min_kblk);

}  // namespace ca3dmm::tuner
