// Prediction-drift gate: joins the analytic cost model against the executed
// engine's virtual-time measurements.
//
// The model (model.hpp) is trusted to evaluate paper-scale benchmarks only
// because tests pin it to the engine at small scale. This header turns that
// pinning into a reusable runtime check: execute a workload on a Cluster the
// caller configured (machine model, TraceConfig, fault plan), aggregate the
// per-phase virtual times, and compare them phase by phase against
// costmodel::predict for the same workload. Phases outside tolerance are
// flagged; bench_fig5_breakdown and CI use ok() as a hard gate so the model
// cannot silently drift away from the engine it claims to describe.
//
// A caller that runs many configs of one shape (the tuner) generates the
// operands once (Operands), reuses one Cluster, and joins each run against
// a prediction it already holds with drift_report.
#pragma once

#include <string>
#include <vector>

#include "costmodel/model.hpp"

namespace ca3dmm::costmodel {

struct DriftOptions {
  /// Relative tolerance on per-phase and total virtual time. The model
  /// replays the executed schedule with the engine's synchronization rules,
  /// so every shape — even or uneven, idle ranks included — is exact to
  /// rounding and the tight default applies everywhere.
  double rtol = 1e-6;
  /// Absolute floor in seconds, so empty or near-empty phases (predicted and
  /// executed both ~0) never flag on rounding noise.
  double atol_seconds = 1e-12;
};

struct PhaseDrift {
  const char* name = "";    ///< phase_name() or "total"
  double predicted_s = 0;   ///< model phase time (max over ranks)
  double executed_s = 0;    ///< engine phase time (max over ranks)
  double rel = 0;           ///< |executed - predicted| / max(executed, predicted)
  bool flagged = false;     ///< outside rtol/atol tolerance
};

struct DriftReport {
  std::vector<PhaseDrift> phases;  ///< one row per simmpi::Phase
  PhaseDrift total;                ///< t_total vs final vtime
  i64 peak_bytes_predicted = 0;
  i64 peak_bytes_executed = 0;
  bool peak_bytes_flagged = false;  ///< model promises exact peak memory
  DriftOptions opts;

  /// True when no phase, the total, nor peak memory drifted out of
  /// tolerance.
  bool ok() const;
  /// Fixed-width human-readable join table (one row per non-empty phase).
  std::string table() const;
};

/// Joins a prediction against executed aggregate stats
/// (Cluster::aggregate_stats() after the run).
DriftReport drift_report(const Prediction& pred,
                         const simmpi::RankStats& executed,
                         const DriftOptions& opts = {});

/// The operands of every executed multiply of one shape, generated once:
/// global row-major A (m x k) and B (k x n) holding matrix_entry(1, i, j)
/// and matrix_entry(2, i, j), the values fill_local gives each rank. Runs
/// that share a shape (the tuner's finalists) copy their slices from here
/// instead of hashing every entry again.
struct Operands {
  Operands(i64 m, i64 n, i64 k);

  i64 m = 0, n = 0, k = 0;
  std::vector<double> a, b;
};

/// Sets `buf` to `rank`'s local buffer under `layout` of the row-major
/// `global` matrix (layout.rows() x layout.cols()): its rects in order,
/// each row-major — fill_local's order, so it equals fill_local of the
/// matrix `global` was generated from.
void slice_local(const BlockLayout& layout, int rank,
                 const std::vector<double>& global, std::vector<double>& buf);

/// Executes one multiply of `w` by `algo` on the caller's Cluster: run_plan
/// — every algorithm's executor (ca3dmm_multiply forwards to it) — on
/// program_of()'s plan and layouts, one-shot (w.warm_comms is not
/// executed), and returns the aggregate stats. The Cluster is
/// caller-owned so tracing can be enabled beforehand and the trace exported
/// afterwards, and so repeated runs keep its fiber stacks and rank blocks;
/// operands are deterministic matrix_entry values, so repeated runs are
/// bit-identical.
simmpi::RankStats run_workload(Algo algo, const Workload& w,
                               simmpi::Cluster& cl);

/// run_workload with operands generated beforehand; `ops` must have w's
/// shape. Each rank copies its slices of A and B from them.
simmpi::RankStats run_workload(Algo algo, const Workload& w,
                               const Operands& ops, simmpi::Cluster& cl);

/// predict + run_workload + drift_report in one call.
DriftReport check_drift(Algo algo, const Workload& w, simmpi::Cluster& cl,
                        const DriftOptions& opts = {});

}  // namespace ca3dmm::costmodel
