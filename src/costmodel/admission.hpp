// Admission-control pricing on top of the analytic cost model.
//
// CA3DMM's unified cost view means a request's latency and peak memory are
// known *before* it runs: costmodel::predict replays the very schedule the
// executable runs, and the drift gate (drift.hpp) holds it to the
// engine's executed virtual time within 1e-6 relative. A serving layer can
// therefore price every incoming request exactly at admission time — no
// profiling, no feedback warm-up — and make quota, scheduling, and
// load-shedding decisions that are correct by construction.
//
// A Quote prices one multiply both ways the persistent engine can run it:
//   cold_s — plan + communicator splits included (the engine's cache-miss
//            path; first request of a shape);
//   warm_s — the four cached PlanComms splits elided (every subsequent
//            request; Workload::warm_comms semantics).
// peak_bytes is identical on both paths: buffer lifetimes don't depend on
// communicator caching.
//
// CostOracle memoizes quotes by (algorithm, workload). A multi-tenant service
// prices thousands of requests drawn from a few shape classes; memoization
// makes admission O(1) per request after the first sighting of a shape,
// and — crucially for the deterministic service loop — guarantees every
// rank computes bit-identical prices from its own oracle.
#pragma once

#include <map>
#include <utility>

#include "costmodel/model.hpp"

namespace ca3dmm::costmodel {

/// Price of one multiply on P ranks, both engine paths.
struct Quote {
  double cold_s = 0;       ///< cache-miss latency (plan + comm splits)
  double warm_s = 0;       ///< cache-hit latency (PlanComms splits elided)
  i64 peak_bytes = 0;      ///< per-rank peak tracked memory (either path)
  double flops_per_rank = 0;
  ProcGrid grid{};

  /// Price of a run of `n` same-shape requests against a cache state:
  /// cold + (n-1) warm on a miss, n * warm on a hit.
  double batch_s(i64 n, bool cached) const {
    if (n <= 0) return 0;
    return cached ? static_cast<double>(n) * warm_s
                  : cold_s + static_cast<double>(n - 1) * warm_s;
  }
};

/// Memoizing front-end over costmodel::predict for one (P, machine)
/// configuration. Not thread-safe; one oracle per serving rank.
class CostOracle {
 public:
  CostOracle(int P, const simmpi::Machine& mach) : P_(P), mach_(mach) {}

  /// Quotes `w` under `algo`, memoized by (algo, w): every option and
  /// field of the Workload is part of the key except `w.warm_comms`, which
  /// is ignored because a quote always carries both paths.
  const Quote& quote(Algo algo, const Workload& w);

  i64 lookups() const { return lookups_; }
  i64 evaluations() const { return evaluations_; }

 private:
  using Key = std::pair<Algo, Workload>;  ///< warm_comms cleared

  int P_;
  simmpi::Machine mach_;
  std::map<Key, Quote> cache_;
  i64 lookups_ = 0;
  i64 evaluations_ = 0;
};

}  // namespace ca3dmm::costmodel
