#include "tuner/db.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "costmodel/model.hpp"

namespace ca3dmm::tuner {

using simmpi::CollAlgo;

int shape_bucket(i64 d) {
  CA_REQUIRE(d >= 1, "shape_bucket needs a positive extent, got %lld",
             static_cast<long long>(d));
  // Octave e = floor(log2 d) by bit position, then the half-octave split at
  // sqrt(2) * 2^e, decided exactly as d^2 >= 2^(2e+1) in 128-bit integers.
  int e = 0;
  for (i64 v = d; v > 1; v >>= 1) ++e;
  const unsigned __int128 d2 =
      static_cast<unsigned __int128>(d) * static_cast<unsigned __int128>(d);
  const unsigned __int128 split = static_cast<unsigned __int128>(1)
                                  << (2 * e + 1);
  return 2 * e + (d2 >= split ? 1 : 0);
}

TuningKey make_key(i64 m, i64 n, i64 k, int nranks,
                   const simmpi::Machine& mach) {
  TuningKey key;
  key.qm = shape_bucket(m);
  key.qn = shape_bucket(n);
  key.qk = shape_bucket(k);
  key.nranks = nranks;
  key.ranks_per_node = mach.ranks_per_node;
  key.gpu = mach.use_gpu;
  return key;
}

TuningKey make_key(i64 m, i64 n, i64 k, int nranks,
                   const simmpi::Topology& topo) {
  TuningKey key = make_key(m, n, k, nranks, topo.machine());
  key.topo = topo.signature();
  return key;
}

const char* coll_algo_token(CollAlgo a) {
  switch (a) {
    case CollAlgo::kPaperButterfly: return "bf";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kRecursive: return "rec";
    case CollAlgo::kHierarchical: return "hier";
    case CollAlgo::kCrossCluster: return "xc";
    case CollAlgo::kAuto: return "auto";
  }
  return "?";
}

namespace {

bool parse_coll_algo(const char* tok, CollAlgo* out) {
  for (CollAlgo a :
       {CollAlgo::kPaperButterfly, CollAlgo::kRing, CollAlgo::kRecursive,
        CollAlgo::kHierarchical, CollAlgo::kCrossCluster, CollAlgo::kAuto}) {
    if (std::strcmp(tok, coll_algo_token(a)) == 0) {
      *out = a;
      return true;
    }
  }
  return false;
}

void warn_ignored(const char* source, const std::string& why) {
  if (source)
    std::fprintf(stderr, "ca3dmm tuner: ignoring tuning DB %s: %s\n", source,
                 why.c_str());
}

}  // namespace

std::optional<TuningEntry> TuningDb::find(const TuningKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuningDb::put(const TuningEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[entry.key] = entry;
}

std::vector<TuningEntry> TuningDb::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TuningEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  return out;
}

size_t TuningDb::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void TuningDb::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::string TuningDb::serialize() const {
  const std::vector<TuningEntry> es = entries();
  std::string out = strprintf("ca3dmm-tuning-db schema %d costmodel %d\n",
                              kSchemaVersion, costmodel::kCostModelVersion);
  out += strprintf("entries %zu\n", es.size());
  for (const TuningEntry& e : es) {
    out += strprintf(
        "%d %d %d %d %d %d topo %llu rep %lld %lld %lld grid %d %d %d "
        "coll %s %s %s %s %lld ov %d pred %.17g valid %.17g base %.17g "
        "pruned %lld validated %lld\n",
        e.key.qm, e.key.qn, e.key.qk, e.key.nranks, e.key.ranks_per_node,
        e.key.gpu ? 1 : 0, static_cast<unsigned long long>(e.key.topo),
        static_cast<long long>(e.rep_m),
        static_cast<long long>(e.rep_n), static_cast<long long>(e.rep_k),
        e.config.grid.pm, e.config.grid.pn, e.config.grid.pk,
        coll_algo_token(e.config.coll.allgather),
        coll_algo_token(e.config.coll.reduce_scatter),
        coll_algo_token(e.config.coll.bcast),
        coll_algo_token(e.config.coll.allreduce),
        static_cast<long long>(e.config.coll.small_message_bytes),
        e.config.overlap ? 1 : 0, e.predicted_s, e.validated_s, e.baseline_s,
        static_cast<long long>(e.candidates_pruned),
        static_cast<long long>(e.candidates_validated));
  }
  return out;
}

bool TuningDb::deserialize(const std::string& blob, const char* warn) {
  std::istringstream in(blob);
  std::string line;
  if (!std::getline(in, line)) {
    warn_ignored(warn, "empty file");
    return false;
  }
  int schema = -1, model = -1;
  if (std::sscanf(line.c_str(), "ca3dmm-tuning-db schema %d costmodel %d",
                  &schema, &model) != 2) {
    warn_ignored(warn, "unrecognized header \"" + line + "\"");
    return false;
  }
  if (schema != kSchemaVersion) {
    warn_ignored(warn, strprintf("schema version %d (this build writes %d)",
                                 schema, kSchemaVersion));
    return false;
  }
  if (model != costmodel::kCostModelVersion) {
    warn_ignored(warn,
                 strprintf("cost-model version %d (this build uses %d); "
                           "entries would not be comparable — re-tune",
                           model, costmodel::kCostModelVersion));
    return false;
  }
  size_t count = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "entries %zu", &count) != 1) {
    warn_ignored(warn, "missing entry count");
    return false;
  }
  std::map<TuningKey, TuningEntry> parsed;
  for (size_t idx = 0; idx < count; ++idx) {
    if (!std::getline(in, line)) {
      warn_ignored(warn, strprintf("truncated: %zu of %zu entries", idx, count));
      return false;
    }
    TuningEntry e;
    char ag[16], rs[16], bc[16], ar[16];
    long long rm, rn, rk, smb, pruned, validated;
    unsigned long long topo;
    int gpu, ov;
    const int got = std::sscanf(
        line.c_str(),
        "%d %d %d %d %d %d topo %llu rep %lld %lld %lld grid %d %d %d "
        "coll %15s %15s %15s %15s %lld ov %d pred %lg valid %lg base %lg "
        "pruned %lld validated %lld",
        &e.key.qm, &e.key.qn, &e.key.qk, &e.key.nranks, &e.key.ranks_per_node,
        &gpu, &topo, &rm, &rn, &rk, &e.config.grid.pm, &e.config.grid.pn,
        &e.config.grid.pk, ag, rs, bc, ar, &smb, &ov, &e.predicted_s,
        &e.validated_s, &e.baseline_s, &pruned, &validated);
    if (got != 24 || !parse_coll_algo(ag, &e.config.coll.allgather) ||
        !parse_coll_algo(rs, &e.config.coll.reduce_scatter) ||
        !parse_coll_algo(bc, &e.config.coll.bcast) ||
        !parse_coll_algo(ar, &e.config.coll.allreduce)) {
      warn_ignored(warn, strprintf("malformed entry %zu: \"%s\"", idx,
                                   line.c_str()));
      return false;
    }
    e.key.gpu = gpu != 0;
    e.key.topo = topo;
    e.rep_m = rm;
    e.rep_n = rn;
    e.rep_k = rk;
    e.config.coll.small_message_bytes = smb;
    e.config.overlap = ov != 0;
    e.candidates_pruned = pruned;
    e.candidates_validated = validated;
    parsed[e.key] = e;
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(parsed);
  return true;
}

bool TuningDb::load(const std::string& path) {
  if (path.empty()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // a missing DB is the normal cold start, no warning
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str(), path.c_str());
}

bool TuningDb::save(const std::string& path) const {
  if (path.empty()) return false;
  const std::string blob = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << blob;
  return out.good();
}

}  // namespace ca3dmm::tuner
