#include "spans.hpp"

#include <cstdio>

namespace perfbench {

std::int64_t SpanRecorder::begin(const char* name, std::int64_t parent,
                                 std::int64_t op, int rank) {
  if (!enabled()) return 0;
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.name = name;
  s.start_s = t;
  s.end_s = -1;  // open
  s.id = static_cast<std::int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.op = op;
  s.rank = rank;
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::end(std::int64_t id) {
  if (id == 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(id - 1)].end_s = t;
}

std::int64_t SpanRecorder::add(const char* name, double start_s, double end_s,
                               std::int64_t parent, std::int64_t op,
                               int rank) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  s.id = static_cast<std::int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.op = op;
  s.rank = rank;
  spans_.push_back(s);
  return s.id;
}

std::vector<Span> SpanRecorder::named(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_)
    if (s.end_s >= 0 && name == s.name) out.push_back(s);
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %lld, \"parent\": %lld, \"op\": %lld, "
                 "\"rank\": %d, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f}%s\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), s.rank, s.name, s.start_s,
                 s.end_s, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
