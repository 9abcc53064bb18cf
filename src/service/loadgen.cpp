#include "service/loadgen.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ca3dmm::service {

const char* shape_mix_name(ShapeMix mix) {
  switch (mix) {
    case ShapeMix::kIterative: return "iterative";
    case ShapeMix::kSquare: return "square";
    case ShapeMix::kTallSkinny: return "tall-skinny";
    case ShapeMix::kBatchedSmall: return "batched-small";
  }
  return "?";
}

namespace {

struct Shape {
  i64 m, n, k;
  int batch;
  ProcGrid grid;  ///< drift-gated grid on 16 ranks
};

/// The menu of one mix, i-th request. Shapes live on the cost model's
/// exactness domain: evenly divisible by their 16-rank grids (the fig5
/// drift-gate configurations plus same-family variants).
Shape shape_of(ShapeMix mix, int i) {
  switch (mix) {
    case ShapeMix::kIterative:
      return {96, 96, 96, 1, ProcGrid{2, 4, 2}};
    case ShapeMix::kSquare:
      return i % 2 == 0 ? Shape{96, 96, 96, 1, ProcGrid{2, 4, 2}}
                        : Shape{64, 64, 64, 1, ProcGrid{2, 4, 2}};
    case ShapeMix::kTallSkinny:
      return i % 2 == 0 ? Shape{512, 32, 32, 1, ProcGrid{4, 2, 2}}
                        : Shape{32, 32, 512, 1, ProcGrid{2, 2, 4}};
    case ShapeMix::kBatchedSmall:
      return {32, 32, 32, 4, ProcGrid{2, 2, 4}};
  }
  return {96, 96, 96, 1, ProcGrid{2, 4, 2}};
}

}  // namespace

GeneratedLoad generate_load(const LoadSpec& spec, int nranks) {
  CA_REQUIRE(!spec.tenants.empty(), "load spec needs at least one tenant");
  const bool pin_grids = spec.exact_grids && nranks == 16;

  GeneratedLoad out;
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    const TenantProfile& p = spec.tenants[t];
    TenantConfig tc;
    tc.name = p.name.empty()
                  ? std::string(shape_mix_name(p.mix)) + "-" + std::to_string(t)
                  : p.name;
    tc.weight = p.weight;
    tc.priority_class = p.priority_class;
    tc.mem_quota_bytes = p.mem_quota_bytes;
    tc.vtime_rate = p.vtime_rate;
    tc.vtime_burst = p.vtime_burst;
    tc.max_queue = p.max_queue;
    out.tenants.push_back(tc);

    Rng rng(splitmix64(spec.seed ^ (0x5e91ceULL + t)));
    double arrival = 0;
    for (int i = 0; i < p.requests; ++i) {
      const Shape s = shape_of(p.mix, i);
      ServiceRequest r;
      r.tenant = static_cast<int>(t);
      r.id = static_cast<i64>(t + 1) * 100000 + i;
      if (p.mean_gap_s > 0)
        arrival += -p.mean_gap_s * std::log(1.0 - rng.uniform01());
      r.arrival_s = arrival;
      r.m = s.m;
      r.n = s.n;
      r.k = s.k;
      r.batch = s.batch;
      // Distinct operands per request; every rank derives the same seeds.
      r.seed_a = splitmix64(spec.seed ^ (r.id * 2 + 1));
      r.seed_b = splitmix64(spec.seed ^ (r.id * 2 + 2));
      if (pin_grids) r.opt.force_grid = s.grid;
      out.requests.push_back(r);
    }
  }
  std::sort(out.requests.begin(), out.requests.end(),
            [](const ServiceRequest& a, const ServiceRequest& b) {
              return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                                : a.id < b.id;
            });
  return out;
}

std::vector<TenantProfile> default_profiles(int n, int requests_each) {
  CA_REQUIRE(n >= 1, "need at least one tenant profile");
  const ShapeMix mixes[] = {ShapeMix::kIterative, ShapeMix::kSquare,
                            ShapeMix::kTallSkinny, ShapeMix::kBatchedSmall};
  std::vector<TenantProfile> out;
  for (int t = 0; t < n; ++t) {
    TenantProfile p;
    p.mix = mixes[t % 4];
    p.name = std::string(shape_mix_name(p.mix)) + "-" + std::to_string(t);
    p.weight = static_cast<double>(i64{1} << (t / 4));  // 1,1,1,1,2,2,...
    p.requests = requests_each;
    out.push_back(p);
  }
  return out;
}

}  // namespace ca3dmm::service
