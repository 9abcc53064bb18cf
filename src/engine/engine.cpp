#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace ca3dmm::engine {

using simmpi::Comm;
using simmpi::PoolScope;

namespace {

size_t mix(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

}  // namespace

size_t PgemmEngine::PlanKeyHash::operator()(const PlanKey& key) const {
  size_t h = std::hash<i64>{}(key.m);
  h = mix(h, std::hash<i64>{}(key.n));
  h = mix(h, std::hash<i64>{}(key.k));
  h = mix(h, std::hash<int>{}(key.nranks));
  const Ca3dmmOptions& o = key.opt;
  h = mix(h, std::hash<bool>{}(o.use_summa));
  h = mix(h, std::hash<i64>{}(o.min_kblk));
  h = mix(h, std::hash<bool>{}(o.abft));
  h = mix(h, std::hash<bool>{}(o.overlap));
  h = mix(h, std::hash<double>{}(o.grid.l));
  h = mix(h, std::hash<bool>{}(o.grid.cannon_compatible));
  h = mix(h, std::hash<i64>{}(o.grid.max_memory_elems));
  h = mix(h, std::hash<double>{}(o.grid.flop_word_ratio));
  h = mix(h, std::hash<size_t>{}(o.k_weights.size()));
  for (const double wt : o.k_weights) h = mix(h, std::hash<double>{}(wt));
  if (o.force_grid) {
    h = mix(h, std::hash<int>{}(o.force_grid->pm));
    h = mix(h, std::hash<int>{}(o.force_grid->pn));
    h = mix(h, std::hash<int>{}(o.force_grid->pk));
  }
  if (o.coll) {
    const simmpi::CollectiveConfig& cc = *o.coll;
    h = mix(h, std::hash<int>{}(static_cast<int>(cc.allgather)));
    h = mix(h, std::hash<int>{}(static_cast<int>(cc.reduce_scatter)));
    h = mix(h, std::hash<int>{}(static_cast<int>(cc.bcast)));
    h = mix(h, std::hash<int>{}(static_cast<int>(cc.allreduce)));
    h = mix(h, std::hash<i64>{}(cc.small_message_bytes));
  }
  return h;
}

PgemmEngine::PgemmEngine(Comm& world, EngineConfig cfg)
    : world_(world.dup()),
      cfg_(cfg),
      owner_ctx_(simmpi::current_ctx()),
      pool_(cfg.pool_max_idle_bytes) {
  pool_.set_footprint_budget(cfg.pool_footprint_budget_bytes);
  CA_REQUIRE(world_.valid(), "PgemmEngine needs a valid communicator");
  CA_REQUIRE(cfg_.plan_cache_capacity >= 1,
             "plan_cache_capacity must be >= 1, got %zu",
             cfg_.plan_cache_capacity);
  // Initial snapshot of the tuning DB (see EngineConfig::tuning_db for the
  // cross-rank consistency contract at construction time).
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

std::vector<tuner::TuningKey> PgemmEngine::refresh_tuning() {
  check_owner();
  std::vector<tuner::TuningKey> changed;
  if (!cfg_.tuning_db) return changed;
  // Rank 0's view of the DB is the one everybody adopts: serialize under
  // the DB's own lock, broadcast the bytes, parse locally. Snapshots are
  // identical by construction even with a concurrent writer.
  std::string blob;
  if (world_.rank() == 0) blob = cfg_.tuning_db->serialize();
  i64 sz = static_cast<i64>(blob.size());
  world_.bcast(&sz, 1, 0);
  blob.resize(static_cast<size_t>(sz));
  if (sz > 0) world_.bcast_bytes(blob.data(), sz, 0);
  tuner::TuningDb parsed;
  std::map<tuner::TuningKey, tuner::TuningEntry> next;
  if (parsed.deserialize(blob, "refresh_tuning broadcast"))
    for (const tuner::TuningEntry& e : parsed.entries()) next[e.key] = e;
  for (const auto& [key, e] : next) {
    auto it = tuned_view_.find(key);
    if (it == tuned_view_.end() || !(it->second == e)) changed.push_back(key);
  }
  for (const auto& [key, e] : tuned_view_)
    if (next.find(key) == next.end()) changed.push_back(key);
  tuned_view_ = std::move(next);
  return changed;
}

const tuner::TuningEntry* PgemmEngine::tuned_entry(
    i64 m, i64 n, i64 k, const Ca3dmmOptions& opt) const {
  if (!cfg_.tuning_db) return nullptr;
  if (opt.force_grid || opt.coll || opt.use_summa) return nullptr;
  const auto it = tuned_view_.find(
      tuner::make_key(m, n, k, world_.size(), world_.topology()));
  if (it == tuned_view_.end() || it->second.stale) return nullptr;
  return &it->second;
}

std::optional<tuner::TunedConfig> PgemmEngine::tuned_for(
    i64 m, i64 n, i64 k, const Ca3dmmOptions& opt) const {
  const tuner::TuningEntry* e = tuned_entry(m, n, k, opt);
  if (!e) return std::nullopt;
  return e->config;
}

PgemmEngine::Entry& PgemmEngine::lookup(const PlanKey& key) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
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
  // from the tuning-DB config when a fresh entry covers this key.
  Ca3dmmOptions build_opt = key.opt;
  if (cfg_.tuning_db) {
    const bool tunable =
        !key.opt.force_grid && !key.opt.coll && !key.opt.use_summa;
    const tuner::TuningEntry* te =
        tuned_entry(key.m, key.n, key.k, key.opt);
    if (te) {
      build_opt.force_grid = te->config.grid;
      build_opt.coll = te->config.coll;
      build_opt.overlap = te->config.overlap;
      e.tuned = true;
      e.tkey = te->key;
      e.tuned_work_s = te->validated_work_s;
      ++stats_.tuned_plans;
      simmpi::trace_marker("engine:plan tuned");
    } else if (tunable && cfg_.tune_on_miss && world_.rank() == 0) {
      cfg_.tuning_db->request_tune(key.m, key.n, key.k, key.nranks,
                                   world_.machine());
    }
  }
  simmpi::trace_marker("engine:plan build");
  e.plan = Ca3dmmPlan::make(key.m, key.n, key.k, key.nranks, build_opt);
  e.comms = PlanComms::make(world_, e.plan);
  const RankCoord co = e.plan.coord(world_.rank());
  e.splits_per_call =
      1 + (co.active ? 1 + (e.plan.c() > 1 ? 1 : 0) +
                           (e.plan.grid().pk > 1 ? 1 : 0)
                     : 0);
  lru_.push_front(std::move(e));
  index_[lru_.front().key] = lru_.begin();
  while (lru_.size() > cfg_.plan_cache_capacity) {
    index_.erase(lru_.back().key);
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
  return index_.count(PlanKey{m, n, k, world_.size(), opt}) != 0;
}

i64 PgemmEngine::trim_pool(i64 target_idle_bytes) {
  return pool_.trim(target_idle_bytes);
}

EngineStats PgemmEngine::stats() const {
  EngineStats s = stats_;
  s.pool = pool_.stats();
  return s;
}

size_t PgemmEngine::cached_plans() const { return lru_.size(); }

void PgemmEngine::clear() {
  lru_.clear();
  index_.clear();
  pool_.trim();
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
  // All work buffers of the whole call tree (driver, 2-D engine,
  // redistribution) draw from the engine's pool while this scope is active.
  // PoolScope's destructor detaches the pool on any exit path, so an
  // aborted multiply cannot leave later allocations drawing from it.
  PoolScope scope(&pool_);
  const bool observe =
      entry.tuned && cfg_.tuned_stale_rtol > 0 && cfg_.tuning_db != nullptr;
  // This rank's clock outside Phase::kRedistribute (see tuned_stale_rtol).
  const auto work_clock = [&] {
    return world_.now() - simmpi::current_ctx()->stats.phase(
                              simmpi::Phase::kRedistribute);
  };
  const double w0 = observe ? work_clock() : 0;
  try {
    ca3dmm_multiply<T>(world_, entry.plan, entry.comms, req.trans_a,
                       req.trans_b, *req.a_layout, req.a, *req.b_layout,
                       req.b, *req.c_layout, req.c);
  } catch (const Error&) {
    // The entry's communicators may have collectives half-rendezvoused on
    // peers that died (or, for a validation error, an inconsistent request
    // stream behind them): drop the plan so the next submission re-splits
    // fresh communicators instead of reusing poisoned state. ClusterAborted
    // unwinds (peer-failure case) are not caught here — those ranks are torn
    // down by the cluster, never reused.
    const PlanKey key = entry.key;
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    ++stats_.plan_invalidations;
    simmpi::trace_marker("engine:plan invalidate");
    throw;
  }
  ++stats_.requests;
  if (observe) {
    // Executed-drift feedback (EngineConfig::tuned_stale_rtol): the max
    // over ranks, like the tuner's, is the same on every rank, so the
    // staleness decision — which mutates shared cache state — is too.
    const double mine = work_clock() - w0;
    std::vector<double> all(static_cast<size_t>(world_.size()));
    world_.allgather(&mine, 1, all.data());
    const double executed_s = *std::max_element(all.begin(), all.end());
    const double ref = entry.tuned_work_s;
    if (ref > 0 && std::abs(executed_s - ref) / ref > cfg_.tuned_stale_rtol) {
      const PlanKey key = entry.key;          // entry dies with the erase
      const tuner::TuningKey tkey = entry.tkey;
      if (world_.rank() == 0) {
        cfg_.tuning_db->mark_stale(tkey);
        if (cfg_.tune_on_miss)
          cfg_.tuning_db->request_tune(key.m, key.n, key.k, key.nranks,
                                       world_.machine());
      }
      auto vt = tuned_view_.find(tkey);
      if (vt != tuned_view_.end()) vt->second.stale = true;
      auto it = index_.find(key);
      if (it != index_.end()) {
        lru_.erase(it->second);
        index_.erase(it);
      }
      ++stats_.plan_invalidations;
      simmpi::trace_marker("engine:tuned stale");
    }
  }
}

template <typename T>
void PgemmEngine::multiply(const Request<T>& req) {
  check_owner();
  execute(lookup(key_of(req)), req);
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
    for (const Request<T>* r : reqs) execute(lookup(key), *r);
}

template void PgemmEngine::multiply<float>(const Request<float>&);
template void PgemmEngine::multiply<double>(const Request<double>&);
template void PgemmEngine::submit<float>(const std::vector<Request<float>>&);
template void PgemmEngine::submit<double>(
    const std::vector<Request<double>>&);

}  // namespace ca3dmm::engine
