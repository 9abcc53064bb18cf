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
// CostOracle memoizes quotes by workload shape. A multi-tenant service
// prices thousands of requests drawn from a few shape classes; memoization
// makes admission O(1) per request after the first sighting of a shape,
// and — crucially for the deterministic service loop — guarantees every
// rank computes bit-identical prices from its own oracle.
#pragma once

#include <functional>
#include <map>
#include <tuple>

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

  /// Quotes `w` under `algo`, memoized by the workload's cost-relevant
  /// fields (m, n, k, esize, layout, min_kblk, abft, force_grid, the
  /// collective schedule, the overlap flag — these three vary per shape
  /// once a tuning DB feeds the service, see tuner/db.hpp — and k_weights).
  /// `w.warm_comms` is ignored: a quote always carries both paths.
  const Quote& quote(Algo algo, const Workload& w);

  /// Drops every memoized quote for the exact shape (m, n, k), any algo /
  /// config. Call when the configuration the engine would run that shape
  /// with changes — e.g. the tuning DB updated its entry — so the next
  /// quote re-prices under the new config. Returns entries erased.
  i64 invalidate_shape(i64 m, i64 n, i64 k);

  /// Drops every memoized quote whose (m, n, k) satisfies `pred`. Used for
  /// tuning-key granularity (a key covers a bucket of shapes, not one
  /// exact shape). Returns entries erased. Like quote(), not thread-safe.
  i64 invalidate_if(const std::function<bool(i64 m, i64 n, i64 k)>& pred);

  int P() const { return P_; }
  const simmpi::Machine& machine() const { return mach_; }
  i64 lookups() const { return lookups_; }
  i64 evaluations() const { return evaluations_; }

 private:
  using Key =
      std::tuple<int, i64, i64, i64, i64, bool, i64, bool, int, int, int, int,
                 int, int, int, i64, bool, std::vector<double>>;
  // algo, m, n, k, esize, layout, kblk, abft, force pm/pn/pk (0,0,0 = none),
  // coll allgather/reduce_scatter/bcast/allreduce, small_message_bytes,
  // overlap, k_weights

  int P_;
  simmpi::Machine mach_;
  std::map<Key, Quote> cache_;
  i64 lookups_ = 0;
  i64 evaluations_ = 0;
};

}  // namespace ca3dmm::costmodel
