// The benchmark's four workloads and the layer probes of the traced run.
//
// Each workload owns its inputs (generated from the seed), runs one cold op
// as part of set-up, then runs ops phase by phase until each phase's host
// seconds elapse, checking every op's output. In a traced run the second
// phase records spans around the public library call each op makes, and
// run_probes() then times each layer in isolation with the op's own
// arguments. See RATIONALE.md for why each workload exists and which layer
// it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "host.hpp"
#include "simmpi/cluster.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

using ca3dmm::i64;
namespace simmpi = ca3dmm::simmpi;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value, never in the JSON line
};
using Metrics = std::vector<Metric>;

/// One stretch of timed ops: traced or not, lasting at least `seconds`.
struct TimedPhase {
  bool traced = false;
  double seconds = 0;
};
/// The phases a run passes to Workload::run, by index: untimed warm-up
/// (ops after the cold one, so host clocks and caches settle), the untraced
/// window the end-to-end metrics come from, and the traced window.
enum PhaseIndex : int { kWarmup = 0, kUntraced = 1, kTraced = 2 };

struct OpRecord {
  int phase = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

struct RunLog {
  double setup_done_s = 0;       ///< SpanRecorder time when the cold op ended
  double setup_done_cpu_s = 0;   ///< process CPU seconds at the same point
  std::vector<OpRecord> ops;     ///< timed ops (the cold op is not here)
  std::vector<double> window_s;  ///< host seconds each phase lasted
  std::vector<double> window_cpu_s;  ///< process CPU seconds each phase took

  /// Marks the end of set-up (the cold op) at SpanRecorder time `t`.
  void setup_done(double t) {
    setup_done_s = t;
    setup_done_cpu_s = process_cpu_s();
  }
  FailCounter fails;             ///< every op, the cold one included
  Metrics e2e;    ///< workload-specific end-to-end values (vtime, memory)
  Metrics layer;  ///< workload-specific per-layer values (engine, tuner, ...)
};

/// One multiply an op performs, with the arguments it passes the library.
struct ProbeCase {
  i64 m = 0, n = 0, k = 0;
  ca3dmm::Ca3dmmOptions opt{};
  bool col1d = false;  ///< 1-D column user layouts instead of native ones
  simmpi::Cluster* cluster = nullptr;  ///< at the op's P and machine
  int count = 1;  ///< times one op multiplies this shape (serial baseline)
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< tiny-P variant of the same code path (tests)
  int workers = 4;     ///< fiber workers per Cluster
};

class Workload {
 public:
  Workload(const WorkloadOptions& opt, SpanRecorder& rec)
      : opt_(opt), rec_(rec) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  /// Everything before the first op: clusters, operands, reference values.
  virtual void setup() = 0;
  /// Runs the cold first op (checked, part of set-up), then the phases.
  virtual void run(const std::vector<TimedPhase>& phases, RunLog& log) = 0;
  /// The multiplies one op performs (distinct shapes, each once).
  virtual std::vector<ProbeCase> probe_cases() = 0;
  /// Ops one probe set stands for; probe values are divided by it.
  virtual int ops_per_probe_set() const { return 1; }

 protected:
  /// Runs `op(traced, op_id, parent_span)` until each phase's seconds
  /// elapse, `group` ops at a time (a group never straddles phases).
  template <typename Op>
  void run_phases(const std::vector<TimedPhase>& phases, int group,
                  RunLog& log, Op&& op);
  std::int64_t next_op_id() { return next_op_++; }

  WorkloadOptions opt_;
  SpanRecorder& rec_;

 private:
  std::int64_t next_op_ = 0;
};

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt,
                                        SpanRecorder& rec);

/// Times every layer on the workload's probe cases, `reps` times, recording
/// one span per layer call. Returns per-op medians (see RATIONALE.md).
/// `op_cpu_s` is the untraced op's median host CPU, the numerator of the
/// simulator-overhead ratio.
Metrics run_probes(Workload& w, SpanRecorder& rec, int reps, double op_cpu_s);

}  // namespace perfbench
