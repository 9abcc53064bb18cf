// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent span, op id) on the host's steady
// clock. Spans are recorded by the benchmark around calls into the library's
// public functions — never from inside src/ — and kept in memory until
// write_json() at exit, so recording costs two clock reads and one push.
// Safe to call from rank fibers on several worker threads: the critical
// section never blocks inside simmpi.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";  ///< static string: "<module>.<call>"
  double start_s = 0;     ///< relative to the recorder's epoch
  double end_s = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t op = -1;     ///< op the span belongs to (-1 = setup/probe-free)
  int rank = -1;            ///< simulated rank for spans inside a rank body
  double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Disabled recorders hand out id 0 and record nothing. May be toggled
  /// while rank fibers record (the bulk workload's loop does).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  double now() const { return seconds_since(epoch_); }

  /// Opens a span; returns its id (0 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent, std::int64_t op,
                     int rank = -1);
  void end(std::int64_t id);

  /// Records an already-measured interval.
  std::int64_t add(const char* name, double start_s, double end_s,
                   std::int64_t parent, std::int64_t op, int rank = -1);

  /// Closed spans with this name, in recording order.
  std::vector<Span> named(const std::string& name) const;

  /// Writes every span as a JSON array. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_; index = id - 1
};

/// RAII span: begin at construction, end at destruction.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name, std::int64_t parent,
            std::int64_t op, int rank = -1)
      : rec_(rec), id_(rec.begin(name, parent, op, rank)) {}
  ~SpanScope() { rec_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

}  // namespace perfbench
