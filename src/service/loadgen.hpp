// Deterministic multi-tenant load generation for the PGEMM service.
//
// Each tenant draws from a shape mix modeled on the paper's serving
// scenarios: iterative solvers re-issuing one shape (§V — density-matrix
// purification, CholeskyQR), general square work, tall-skinny/large-K
// factorization panels, and batches of small multiplies submitted together.
// Arrivals are exponentially spaced from a seeded Rng, so the same
// (spec, nranks) always generates the identical request stream on every
// rank and every run — the property the CI smoke gate and the drift SLA
// metrics depend on.
//
// On 16 ranks the generator pins each shape to its known-optimal grid —
// the configurations the fig5 drift gate holds to 1e-6 predicted-vs-
// executed — so the service's SLA drift percentiles inherit cost-model
// exactness. On any other rank count (including shrunk worlds after a
// fault) grids are left to the solver and drift is reported but not gated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace ca3dmm::service {

enum class ShapeMix : int {
  kIterative = 0,  ///< one square shape, repeated (plan-cache best case)
  kSquare,         ///< alternating square shapes
  kTallSkinny,     ///< alternating large-M / large-K panels
  kBatchedSmall,   ///< small multiplies, several per request (batch > 1)
};

const char* shape_mix_name(ShapeMix mix);

/// One tenant of a generated load: serving contract + traffic shape.
struct TenantProfile {
  std::string name;
  double weight = 1.0;
  int priority_class = 0;
  ShapeMix mix = ShapeMix::kIterative;
  int requests = 16;
  /// Mean exponential arrival gap in service vtime seconds; 0 = the whole
  /// stream arrives at t = 0 (instant overload).
  double mean_gap_s = 0;
  // Serving contract, copied into the TenantConfig (defaults = unlimited).
  i64 mem_quota_bytes = i64{1} << 60;
  double vtime_rate = 1e18;
  double vtime_burst = 1e18;
  i64 max_queue = 64;
};

struct LoadSpec {
  std::vector<TenantProfile> tenants;
  std::uint64_t seed = 2026;
  /// Pin shapes to their drift-gated grids when nranks == 16. Disable for
  /// loads that must survive a shrink to fewer ranks (forced grids encode
  /// a rank count; the solver re-plans any count).
  bool exact_grids = true;
};

struct GeneratedLoad {
  /// Tenant contracts matching the profiles, in profile order. The caller
  /// fills ServiceConfig::memory_budget_bytes / starvation / engine knobs.
  std::vector<TenantConfig> tenants;
  std::vector<ServiceRequest> requests;  ///< sorted by (arrival, id)
};

GeneratedLoad generate_load(const LoadSpec& spec, int nranks);

/// The canonical smoke-test tenant set: `n` tenants cycling through the
/// four mixes with weights 1, 1, 2, 4, ... (doubling every 4th tenant).
std::vector<TenantProfile> default_profiles(int n, int requests_each);

}  // namespace ca3dmm::service
