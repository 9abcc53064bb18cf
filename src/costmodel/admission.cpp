#include "costmodel/admission.hpp"

namespace ca3dmm::costmodel {

const Quote& CostOracle::quote(Algo algo, const Workload& w) {
  ++lookups_;
  Key key{algo, w};
  key.second.warm_comms = false;
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  ++evaluations_;
  Workload warm = key.second;
  warm.warm_comms = true;
  const Prediction pc = predict(algo, key.second, P_, mach_);
  const Prediction pw = predict(algo, warm, P_, mach_);
  Quote q;
  q.cold_s = pc.t_total;
  q.warm_s = pw.t_total;
  q.peak_bytes = pc.peak_bytes;
  q.flops_per_rank = pc.flops_per_rank;
  q.grid = pc.grid;
  CA_ASSERT(pw.peak_bytes == pc.peak_bytes);  // caching never moves memory
  return cache_.emplace(key, q).first->second;
}

}  // namespace ca3dmm::costmodel
