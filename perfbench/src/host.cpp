#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// Largest cache level glibc reports (from cpuid, no file access).
std::string llc_string() {
  const struct {
    int name;
    const char* label;
  } levels[] = {{_SC_LEVEL4_CACHE_SIZE, "L4"},
                {_SC_LEVEL3_CACHE_SIZE, "L3"},
                {_SC_LEVEL2_CACHE_SIZE, "L2"}};
  for (const auto& l : levels) {
    const long bytes = sysconf(l.name);
    if (bytes > 0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s %.0f KiB", l.label, bytes / 1024.0);
      return buf;
    }
  }
  return "unknown";
}

bool built_with_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

bool Fingerprint::valid() const {
  return !sanitized && (build_type == "Release" || build_type == "RelWithDebInfo");
}

std::string Fingerprint::json() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %d, \"llc\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"sanitized\": %s, \"backend\": "
                "\"%s\", \"fiber_workers\": %d, \"valid\": %s}",
                nproc, llc.c_str(), compiler.c_str(), build_type.c_str(),
                sanitized ? "true" : "false", backend.c_str(), fiber_workers,
                valid() ? "true" : "false");
  return buf;
}

Fingerprint host_fingerprint(int fiber_workers) {
  Fingerprint f;
  f.nproc = static_cast<int>(std::thread::hardware_concurrency());
  f.llc = llc_string();
#if defined(__clang__)
  f.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  f.compiler = "gcc " __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  // Assertions on: not an optimized product build whatever the label says.
  if (f.build_type == "Release" || f.build_type == "RelWithDebInfo")
    f.build_type += "+asserts";
#endif
  f.sanitized = built_with_sanitizer();
  f.fiber_workers = fiber_workers;
  return f;
}

}  // namespace perfbench
