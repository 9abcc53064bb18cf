#include "engine/engine.hpp"

#include <algorithm>

namespace ca3dmm::engine {

using simmpi::Comm;

PgemmEngine::PgemmEngine(Comm& world, EngineConfig cfg)
    : world_(world.dup()),
      cfg_(cfg),
      owner_ctx_(simmpi::current_ctx()) {
  CA_REQUIRE(world_.valid(), "PgemmEngine needs a valid communicator");
  CA_REQUIRE(cfg_.plan_cache_capacity >= 1,
             "plan_cache_capacity must be >= 1, got %zu",
             cfg_.plan_cache_capacity);
  // The engine's only read of the tuning DB (see EngineConfig::tuning_db
  // for the cross-rank consistency contract at construction time).
  if (cfg_.tuning_db)
    for (const tuner::TuningEntry& e : cfg_.tuning_db->entries())
      tuned_view_[e.key] = e;
}

void PgemmEngine::check_owner() const {
  CA_REQUIRE(simmpi::current_ctx() == owner_ctx_,
             "PgemmEngine on world rank %d called off its owning rank; an "
             "engine is a per-rank object, called only from its rank's code",
             world_.world_rank());
}

const tuner::TuningEntry* PgemmEngine::tuned_entry(
    i64 m, i64 n, i64 k, const Ca3dmmOptions& opt) const {
  if (tuned_view_.empty() || opt.force_grid || opt.coll || opt.use_summa)
    return nullptr;
  const auto it = tuned_view_.find(
      tuner::make_key(m, n, k, world_.size(), world_.topology()));
  return it == tuned_view_.end() ? nullptr : &it->second;
}

std::optional<tuner::TunedConfig> PgemmEngine::tuned_for(
    i64 m, i64 n, i64 k, const Ca3dmmOptions& opt) const {
  const tuner::TuningEntry* e = tuned_entry(m, n, k, opt);
  if (!e) return std::nullopt;
  return e->config;
}

std::list<PgemmEngine::Entry>::const_iterator PgemmEngine::find(
    const PlanKey& key) const {
  return std::find_if(lru_.begin(), lru_.end(),
                      [&](const Entry& e) { return e.key == key; });
}

const Schedule& PgemmEngine::Entry::schedule(const Comm& world, bool trans_a,
                                             bool trans_b, i64 esize) {
  std::optional<Schedule>& s =
      schedules[static_cast<size_t>(trans_a * 4 + trans_b * 2 + (esize == 8))];
  if (!s) s = compile(plan, world, trans_a, trans_b, esize);
  return *s;
}

PgemmEngine::Entry& PgemmEngine::lookup(const PlanKey& key, bool trans_a,
                                        bool trans_b, i64 esize) {
  auto it = find(key);
  if (it != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, it);
    ++stats_.plan_hits;
    stats_.splits_saved += lru_.front().splits_per_call;
    simmpi::trace_marker("engine:plan hit");
    return lru_.front();
  }
  // Miss: plan and split the communicators (collective — every rank misses
  // on the same request of the same stream).
  ++stats_.plan_misses;
  simmpi::trace_marker("engine:plan miss");
  Entry e;
  e.key = key;
  // The cache stays keyed by the *requested* options (is_cached and the
  // service's pricing see the request stream), but the plan itself is built
  // from the tuning-DB config when an entry covers this key.
  Ca3dmmOptions build_opt = key.opt;
  if (const tuner::TuningEntry* te =
          tuned_entry(key.m, key.n, key.k, key.opt)) {
    build_opt = te->config.applied_to(key.opt);
    ++stats_.tuned_plans;
    simmpi::trace_marker("engine:plan tuned");
  }
  simmpi::trace_marker("engine:plan build");
  e.plan = Ca3dmmPlan::make(key.m, key.n, key.k, key.nranks, build_opt);
  const Schedule& s = e.schedule(world_, trans_a, trans_b, esize);
  e.comms = PlanComms::make(world_, s);
  e.splits_per_call = std::ranges::count_if(s.ops(), [](const Op& op) {
    return op.kind == OpKind::kSplit && op.split.cacheable;
  });
  lru_.push_front(std::move(e));
  while (lru_.size() > cfg_.plan_cache_capacity) {
    lru_.pop_back();
    ++stats_.plan_evictions;
    simmpi::trace_marker("engine:plan evict");
  }
  return lru_.front();
}

const Ca3dmmPlan& PgemmEngine::plan_for(i64 m, i64 n, i64 k,
                                        const Ca3dmmOptions& opt) {
  check_owner();
  return lookup(PlanKey{m, n, k, world_.size(), opt}).plan;
}

bool PgemmEngine::is_cached(i64 m, i64 n, i64 k,
                            const Ca3dmmOptions& opt) const {
  return find(PlanKey{m, n, k, world_.size(), opt}) != lru_.end();
}

EngineStats PgemmEngine::stats() const {
  EngineStats s = stats_;
  s.pool = pool_.stats();
  return s;
}

size_t PgemmEngine::cached_plans() const { return lru_.size(); }

void PgemmEngine::clear() {
  lru_.clear();
  pool_.release();
}

template <typename T>
PgemmEngine::PlanKey PgemmEngine::key_of(const Request<T>& req) const {
  return PlanKey{req.m, req.n, req.k, world_.size(), req.opt};
}

template <typename T>
void PgemmEngine::execute(Entry& entry, const Request<T>& req) {
  CA_REQUIRE(req.a_layout != nullptr && req.b_layout != nullptr &&
                 req.c_layout != nullptr,
             "engine request needs all three layouts set");
  try {
    const Schedule& s =
        entry.schedule(world_, req.trans_a, req.trans_b, sizeof(T));
    ScheduleIo<T> io;
    entry.comms.bind(io.cached);
    run_plan(world_, entry.plan, req.trans_a, req.trans_b, *req.a_layout,
             req.a, *req.b_layout, req.b, *req.c_layout, req.c, io, &s,
             &pool_);
  } catch (const Error&) {
    // The entry's communicators may have collectives half-rendezvoused on
    // peers that died (or, for a validation error, an inconsistent request
    // stream behind them): drop the plan so the next submission re-splits
    // fresh communicators instead of reusing poisoned state. ClusterAborted
    // unwinds (peer-failure case) are not caught here — those ranks are torn
    // down by the cluster, never reused.
    auto it = find(entry.key);
    if (it != lru_.end()) lru_.erase(it);
    ++stats_.plan_invalidations;
    simmpi::trace_marker("engine:plan invalidate");
    throw;
  }
  ++stats_.requests;
}

template <typename T>
void PgemmEngine::multiply(const Request<T>& req) {
  check_owner();
  execute(lookup(key_of(req), req.trans_a, req.trans_b, sizeof(T)), req);
}

template <typename T>
void PgemmEngine::submit(const std::vector<Request<T>>& batch) {
  check_owner();
  ++stats_.batches;
  // Group same-plan requests, preserving the order groups first appear in;
  // a group's requests then run back-to-back on one cached plan, so an
  // interleaved shape stream costs at most one miss per distinct shape
  // instead of thrashing the LRU.
  std::vector<std::pair<PlanKey, std::vector<const Request<T>*>>> groups;
  for (const Request<T>& r : batch) {
    const PlanKey key = key_of(r);
    auto git = std::find_if(groups.begin(), groups.end(),
                            [&](const auto& g) { return g.first == key; });
    if (git == groups.end()) {
      groups.emplace_back(key, std::vector<const Request<T>*>{});
      git = std::prev(groups.end());
    }
    git->second.push_back(&r);
  }
  for (const auto& [key, reqs] : groups)
    for (const Request<T>* r : reqs)
      execute(lookup(key, r->trans_a, r->trans_b, sizeof(T)), *r);
}

template void PgemmEngine::multiply<float>(const Request<float>&);
template void PgemmEngine::multiply<double>(const Request<double>&);
template void PgemmEngine::submit<float>(const std::vector<Request<float>>&);
template void PgemmEngine::submit<double>(
    const std::vector<Request<double>>&);

}  // namespace ca3dmm::engine
