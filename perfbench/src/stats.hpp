// Order statistics and failure accounting for the host-time benchmark.
//
// quartiles() reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so the spreads this binary prints are the
// ones run.py and any later comparison compute from the same samples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
  /// Inter-quartile range as a share of the median (0 when the median is 0).
  double spread() const { return q2 != 0 ? (q3 - q1) / q2 : 0.0; }
};

/// statistics.quantiles(v, n=4, method="exclusive"); needs >= 2 samples.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long long m = static_cast<long long>(v.size()) + 1;
  double q[3];
  for (long long i = 1; i <= 3; ++i) {
    // Python clamps j into [1, n-1] so both neighbours exist, then
    // interpolates with the delta of the clamped index.
    const long long j =
        std::clamp<long long>(i * m / 4, 1, static_cast<long long>(v.size()) - 1);
    const long long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

/// The highest order statistic with at least `beyond` samples above it:
/// with n samples that is the (n - beyond)-th smallest, i.e. percentile
/// 100 * (n - beyond) / n. Empty when n <= beyond (no such sample).
struct Tail {
  double value = 0;
  double percentile = 0;
  int samples = 0;  ///< total samples the percentile was taken over
  int beyond = 0;   ///< samples strictly above it in rank order
};

inline std::optional<Tail> tail_with_beyond(std::vector<double> v,
                                            int beyond = 10) {
  const int n = static_cast<int>(v.size());
  if (n <= beyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  Tail t;
  t.value = v[static_cast<size_t>(n - beyond - 1)];
  t.percentile = 100.0 * (n - beyond) / n;
  t.samples = n;
  t.beyond = beyond;
  return t;
}

/// Counts attempted and failed ops. A check that could not run counts as a
/// failure: record() must be called once per op with the op's verdict, and
/// the first few failure messages are kept for the report.
class FailCounter {
 public:
  void record(bool ok, const std::string& why = "") {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(why.empty() ? "failed" : why);
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double fail_frac() const {
    return attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / attempted_;
  }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace perfbench
