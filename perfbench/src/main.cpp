// perfbench: host-time benchmark of the CA3DMM library, end to end and by
// layer.
//
//   perfbench --workload <name|all> --seed N --seconds S --trace 0|1
//             [--setup-only] [--out DIR]
//
// Untraced runs (--trace 0) time ops with no spans and print the end-to-end
// metrics. The gated ones count process CPU seconds, which a shared host's
// stolen time does not inflate; wall times are printed beside them. A traced
// run (--trace 1) spends half its time untraced and half
// recording spans, then probes each layer, and prints the per-layer
// metrics and the tracing overhead. Every op's output is checked; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// Spans and the full result are written to DIR at exit.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The metrics the final JSON line carries; BENCHMARK.json lists the same.
const char* const kEndToEndJson[] = {"setup_s", "op_cpu_p50_s", "ops_per_cpu_s"};
const char* const kPerLayerJson[] = {
    "simmpi.spawn_s",       "simmpi.split_s",        "simmpi.coll_s",
    "simmpi.coll_gbps",     "simmpi.small_coll_us",  "layout.native_cpu_s",
    "layout.redistribute_s", "linalg.gemm_s",        "linalg.gemm_gflops",
    "linalg.baseline_s",    "core.plan_s",           "core.sim_overhead_x",
    "costmodel.predict_s",  "trace.overhead_s"};

/// Untimed ops between the cold op and the timed window.
constexpr double kWarmupS = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string out = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--out") {
      a.out = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

const Metric* find(const Metrics& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return &m;
  return nullptr;
}

struct Result {
  std::string workload;
  bool correct = false;
  std::int64_t attempted = 0, failed = 0;
  Metrics e2e, layer;
  std::vector<std::string> failures;
};

std::string json_metrics(const Metrics& ms, const char* const* names,
                         size_t count, const std::string& prefix) {
  std::string out;
  for (size_t i = 0; i < count; ++i) {
    const Metric* m = find(ms, names[i]);
    if (m == nullptr) continue;  // run.py rejects a result that lacks one
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", prefix.c_str(), m->name.c_str(),
                  m->value, m->unit.c_str());
    out += buf;
  }
  return out;
}

void print_metrics(const char* kind, const Metrics& ms) {
  for (const Metric& m : ms)
    std::printf("%-6s %-30s %14.6g %-8s %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

Result run_one(const std::string& name, const Args& args, int workers,
               const Fingerprint& fp) {
  SpanRecorder rec;
  WorkloadOptions wopt;
  wopt.seed = args.seed;
  wopt.workers = workers;
  std::unique_ptr<Workload> w = make_workload(name, wopt, rec);
  if (!w) usage(("unknown workload " + name).c_str());

  Result res;
  res.workload = name;
  RunLog log;
  const double t_start = rec.now();
  const double cpu_start = process_cpu_s();
  w->setup();
  std::vector<TimedPhase> phases;  // indexed by PhaseIndex
  if (!args.setup_only) {
    phases = {{false, kWarmupS}, {false, args.seconds}};
    if (args.trace) phases = {{false, kWarmupS}, {false, args.seconds / 2},
                              {true, args.seconds / 2}};
  }
  w->run(phases, log);

  std::vector<double> wall[3], cpu[3];
  for (const OpRecord& o : log.ops) {
    wall[o.phase].push_back(o.wall_s);
    cpu[o.phase].push_back(o.cpu_s);
  }
  const std::vector<double>& untraced = wall[kUntraced];
  res.e2e.push_back({"setup_s", log.setup_done_cpu_s - cpu_start, "s",
                     "process CPU, start until the cold op ends"});
  res.e2e.push_back({"setup_wall_s", log.setup_done_s - t_start, "s",
                     "start until the cold op ends"});
  if (!args.setup_only) {
    res.e2e.push_back({"op_cpu_p50_s", median(cpu[kUntraced]), "s",
                       "process CPU per op"});
    res.e2e.push_back({"ops_per_cpu_s",
                       static_cast<double>(untraced.size()) / log.window_cpu_s[kUntraced],
                       "1/s", "per process CPU second of the untraced window"});
    std::string note = std::to_string(untraced.size()) + " ops";
    if (untraced.size() >= 2) {
      const Quartiles q = quartiles(untraced);
      char buf[64];
      std::snprintf(buf, sizeof buf, ", quartiles %.4g..%.4g", q.q1, q.q3);
      note += buf;
    }
    res.e2e.push_back({"op_wall_p50_s", median(untraced), "s", note});
    // A "tail" below the median (fewer than 20 ops) is no tail: omit it too.
    const auto tail = tail_with_beyond(untraced, 10);
    if (tail && tail->percentile >= 50) {
      char note[96];
      std::snprintf(note, sizeof note, "p%.1f of %d ops, %d beyond",
                    tail->percentile, tail->samples, tail->beyond);
      res.e2e.push_back({"op_wall_tail_s", tail->value, "s", note});
    } else {
      std::printf("note   op_wall_tail_s omitted: %zu ops, fewer than 10 "
                  "beyond the median\n", untraced.size());
    }
    res.e2e.push_back({"ops_per_s",
                       static_cast<double>(untraced.size()) / log.window_s[kUntraced],
                       "1/s", "over the untraced window"});
  }
  for (const Metric& m : log.e2e) res.e2e.push_back(m);
  res.e2e.push_back({"rss_mib", peak_rss_mib(), "MiB", "process peak RSS"});
  res.e2e.push_back({"fail_frac", log.fails.fail_frac(), "ratio",
                     std::to_string(log.fails.failed()) + " of " +
                         std::to_string(log.fails.attempted()) + " ops"});

  if (args.trace && !args.setup_only) {
    const double traced = median(cpu[kTraced]);
    res.layer = run_probes(*w, rec, 3, median(cpu[kUntraced]));
    res.layer.push_back({"trace.overhead_s", traced - median(cpu[kUntraced]), "s",
                         "traced op CPU p50 - untraced op CPU p50"});
    res.layer.push_back({"op.traced_cpu_p50_s", traced, "s",
                         std::to_string(cpu[kTraced].size()) + " traced ops"});
    // The op's own library call, from its span in the traced window.
    for (const auto& [span, metric] :
         {std::pair{"core.ca3dmm_multiply", "core.multiply_s"},
          std::pair{"service.serve", "service.serve_s"},
          std::pair{"tuner.tune_into", "tuner.tune_s"}}) {
      std::vector<double> d;
      for (const Span& sp : rec.named(span)) d.push_back(sp.duration());
      if (!d.empty())
        res.layer.push_back({metric, median(d), "s",
                             std::string(span) + " span, median"});
    }
  }
  for (const Metric& m : log.layer) res.layer.push_back(m);

  res.attempted = log.fails.attempted();
  res.failed = log.fails.failed();
  res.correct = res.attempted >= 1 && res.failed == 0;
  res.failures = log.fails.messages();

  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string stem = args.out + "/" + name + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  if (args.trace && !rec.write_json(stem + "-spans.json"))
    std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n", stem.c_str());
  if (std::FILE* f = std::fopen((stem + "-result.json").c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"host\": %s,\n",
                 name.c_str(), static_cast<unsigned long long>(args.seed),
                 fp.json().c_str());
    std::fprintf(f, " \"ops\": [");  // [phase, wall s, process CPU s]
    for (size_t i = 0; i < log.ops.size(); ++i)
      std::fprintf(f, "%s[%d, %.9f, %.9f]", i ? ", " : "", log.ops[i].phase,
                   log.ops[i].wall_s, log.ops[i].cpu_s);
    std::fprintf(f, "],\n");
    std::fprintf(f, " \"correct\": %s, \"attempted\": %lld, \"failed\": %lld,\n",
                 res.correct ? "true" : "false",
                 static_cast<long long>(res.attempted),
                 static_cast<long long>(res.failed));
    for (const auto& [label, ms] : {std::pair{"end_to_end", &res.e2e},
                                    std::pair{"per_layer", &res.layer}}) {
      std::fprintf(f, " \"%s\": {", label);
      for (size_t i = 0; i < ms->size(); ++i)
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", (*ms)[i].name.c_str(), (*ms)[i].value,
                     (*ms)[i].unit.c_str());
      std::fprintf(f, "}%s\n", label[0] == 'e' ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return res;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  // At most nproc fiber workers, and at most 4 so hosts of different sizes
  // schedule the same way.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::clamp(hw, 1, 4);
  const Fingerprint fp = host_fingerprint(workers);

  std::vector<std::string> names;
  if (args.workload == "all")
    names = workload_names();
  else
    names = {args.workload};

  std::vector<Result> results;
  for (const std::string& name : names) {
    std::printf("== perfbench %s seed=%llu seconds=%g trace=%d%s\n",
                name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0,
                args.setup_only ? " setup-only" : "");
    std::printf("host   %s\n", fp.json().c_str());
    if (!fp.valid())
      std::printf("host   INVALID for timing: %s build%s\n", fp.build_type.c_str(),
                  fp.sanitized ? " with sanitizers" : "");
    std::fflush(stdout);
    Result r = run_one(name, args, workers, fp);
    print_metrics("e2e", r.e2e);
    print_metrics("layer", r.layer);
    for (const std::string& f : r.failures) std::printf("FAIL   %s\n", f.c_str());
    std::fflush(stdout);
    results.push_back(std::move(r));
  }

  bool correct = true;
  std::int64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Result& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = results.size() > 1 ? r.workload + "/" : "";
    const std::string part =
        args.setup_only
            ? json_metrics(r.e2e, kEndToEndJson, 1, prefix)
        : args.trace
            ? json_metrics(r.layer, kPerLayerJson, std::size(kPerLayerJson), prefix)
            : json_metrics(r.e2e, kEndToEndJson, std::size(kEndToEndJson), prefix);
    if (!part.empty()) metrics += (metrics.empty() ? "" : ", ") + part;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  return 0;
}
