// Host facts every result carries: process CPU time, peak RSS, and the
// fingerprint (cores, last-level cache, compiler, build type, scheduler
// backend, fiber workers) that says which machine and build produced it.
#pragma once

#include <string>

namespace perfbench {

/// CPU seconds consumed by the whole process (all threads) so far.
double process_cpu_s();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

struct Fingerprint {
  int nproc = 0;
  std::string llc;         ///< e.g. "L3 300 MiB", from sysfs
  std::string compiler;    ///< compiler id and version
  std::string build_type;  ///< CMAKE_BUILD_TYPE the benchmark was built with
  bool sanitized = false;  ///< built with ASan/TSan/UBSan
  std::string backend = "fibers";
  int fiber_workers = 0;

  /// Timings from a debug or sanitizer build do not describe the product.
  bool valid() const;
  std::string json() const;
};

Fingerprint host_fingerprint(int fiber_workers);

}  // namespace perfbench
