// Tests of the benchmark's own code: order statistics, the tail percentile,
// failure counting, and a tiny-P smoke run of every workload (untraced and
// traced, with layer probes) so the harness is exercised in seconds.
//
//   perfbench_tests            (or: ctest in the perfbench build directory)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1 + std::abs(b)); }

void test_median() {
  using perfbench::median;
  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({7}), 7));
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_quartiles() {
  using perfbench::quartiles;
  // Reference values: Python statistics.quantiles(v, n=4).
  const perfbench::Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25));
  CHECK(near(a.spread(), (8.25 - 2.75) / 5.5));
  const perfbench::Quartiles b = quartiles({3.0, 1.0});
  CHECK(near(b.q1, 0.5) && near(b.q2, 2.0) && near(b.q3, 3.5));
  const perfbench::Quartiles c = quartiles({5, 1, 4, 2, 3});
  CHECK(near(c.q1, 1.5) && near(c.q2, 3.0) && near(c.q3, 4.5));
}

void test_tail() {
  using perfbench::tail_with_beyond;
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  CHECK(!tail_with_beyond(v, 10));  // <= 10 samples: omitted
  v.push_back(11);
  const auto t11 = tail_with_beyond(v, 10);
  CHECK(t11 && near(t11->value, 1) && t11->samples == 11 && t11->beyond == 10);
  v.clear();
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const auto t100 = tail_with_beyond(v, 10);
  // 90 has exactly ten samples (91..100) above it: the p90 of 100 samples.
  CHECK(t100 && near(t100->value, 90) && near(t100->percentile, 90));
}

void test_fail_counter() {
  perfbench::FailCounter f;
  CHECK(f.fail_frac() == 1.0);  // nothing attempted never reads as success
  f.record(true);
  f.record(false, "bad C");
  f.record(true);
  f.record(false);
  CHECK(f.attempted() == 4 && f.failed() == 2);
  CHECK(near(f.fail_frac(), 0.5));
  CHECK(f.messages().size() == 2 && f.messages()[0] == "bad C");
}

void test_smoke(const std::string& name) {
  perfbench::SpanRecorder rec;
  perfbench::WorkloadOptions opt;
  opt.seed = 7;
  opt.smoke = true;
  opt.workers = 2;
  auto w = perfbench::make_workload(name, opt, rec);
  CHECK(w != nullptr);
  if (!w) return;
  w->setup();
  perfbench::RunLog log;
  w->run({{false, 0.02}, {false, 0.05}, {true, 0.05}}, log);
  for (const std::string& m : log.fails.messages())
    std::printf("  %s: %s\n", name.c_str(), m.c_str());
  CHECK(log.fails.failed() == 0);
  CHECK(log.fails.attempted() >= 4);  // cold op + >= 1 per phase
  CHECK(log.window_s.size() == 3 && log.window_cpu_s.size() == 3);
  CHECK(log.setup_done_s > 0 && log.setup_done_cpu_s > 0);
  bool seen[3] = {false, false, false};
  for (const perfbench::OpRecord& o : log.ops) seen[o.phase] = true;
  CHECK(seen[perfbench::kWarmup] && seen[perfbench::kUntraced] &&
        seen[perfbench::kTraced]);
  CHECK(!rec.named("op").empty());  // only the traced phase records spans

  const perfbench::Metrics layer = perfbench::run_probes(*w, rec, 1, 0.01);
  for (const char* m : {"simmpi.spawn_s", "simmpi.split_s", "simmpi.coll_s",
                        "layout.native_cpu_s", "layout.redistribute_s",
                        "linalg.gemm_s", "linalg.baseline_s", "core.plan_s",
                        "costmodel.predict_s"}) {
    bool found = false;
    for (const perfbench::Metric& x : layer)
      if (x.name == m) found = x.value > 0;
    if (!found) std::printf("  %s: missing or zero %s\n", name.c_str(), m);
    CHECK(found);
  }
  CHECK(!rec.named("simmpi.spawn").empty());
  CHECK(!rec.named("layout.redistribute").empty());
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_tail();
  test_fail_counter();
  for (const std::string& name : perfbench::workload_names()) {
    std::printf("smoke %s\n", name.c_str());
    test_smoke(name);
  }
  std::printf("%s (%d failure%s)\n", g_failures ? "FAILED" : "OK", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
