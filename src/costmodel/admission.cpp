#include "costmodel/admission.hpp"

namespace ca3dmm::costmodel {

const Quote& CostOracle::quote(Algo algo, const Workload& w) {
  ++lookups_;
  const ProcGrid fg = w.force_grid.value_or(ProcGrid{0, 0, 0});
  const Key key{static_cast<int>(algo),
                w.m,
                w.n,
                w.k,
                w.esize,
                w.custom_layout,
                w.min_kblk,
                w.abft,
                fg.pm,
                fg.pn,
                fg.pk,
                static_cast<int>(w.coll.allgather),
                static_cast<int>(w.coll.reduce_scatter),
                static_cast<int>(w.coll.bcast),
                static_cast<int>(w.coll.allreduce),
                w.coll.small_message_bytes,
                w.overlap,
                w.k_weights};
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  ++evaluations_;
  Workload cold = w;
  cold.warm_comms = false;
  Workload warm = w;
  warm.warm_comms = true;
  const Prediction pc = predict(algo, cold, P_, mach_);
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

i64 CostOracle::invalidate_shape(i64 m, i64 n, i64 k) {
  return invalidate_if(
      [&](i64 em, i64 en, i64 ek) { return em == m && en == n && ek == k; });
}

i64 CostOracle::invalidate_if(
    const std::function<bool(i64 m, i64 n, i64 k)>& pred) {
  i64 erased = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (pred(std::get<1>(it->first), std::get<2>(it->first),
             std::get<3>(it->first))) {
      it = cache_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

}  // namespace ca3dmm::costmodel
