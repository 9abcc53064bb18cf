// Canonical 1-D block partition math.
//
// Every distributed object in this library splits an index range [0, n) into
// p canonical blocks whose sizes are either ceil(n/p) or floor(n/p): the
// first (n mod p) blocks get the extra element. CA3DMM's analysis (paper
// §III-A) assumes exactly this partition, and using one canonical function
// everywhere guarantees that independently computed views of the same
// partition agree.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace ca3dmm {

using i64 = std::int64_t;

/// Half-open index range [lo, hi).
struct Range {
  i64 lo = 0;
  i64 hi = 0;

  i64 size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
  bool contains(i64 i) const { return lo <= i && i < hi; }

  friend bool operator==(const Range&, const Range&) = default;
};

/// Intersection of two ranges (possibly empty).
inline Range intersect(const Range& a, const Range& b) {
  Range r{a.lo > b.lo ? a.lo : b.lo, a.hi < b.hi ? a.hi : b.hi};
  if (r.hi < r.lo) r.hi = r.lo;
  return r;
}

// The canonical partition gives the first (n mod p) blocks size ceil(n/p)
// and the rest size floor(n/p). This matches the paper's ⌈m/p_m⌉ / ⌊m/p_m⌋
// block-size statement. Inline: plans and the cost model query these for
// every rank.

/// Size of block `b` when [0, n) is split into `p` canonical blocks.
inline i64 block_size(i64 n, i64 p, i64 b) {
  CA_ASSERT_MSG(p > 0 && b >= 0 && b < p, "n=%lld p=%lld b=%lld",
                static_cast<long long>(n), static_cast<long long>(p),
                static_cast<long long>(b));
  const i64 q = n / p, r = n % p;
  return q + (b < r ? 1 : 0);
}

/// Starting index of block `b`.
inline i64 block_start(i64 n, i64 p, i64 b) {
  CA_ASSERT_MSG(p > 0 && b >= 0 && b <= p, "n=%lld p=%lld b=%lld",
                static_cast<long long>(n), static_cast<long long>(p),
                static_cast<long long>(b));
  const i64 q = n / p, r = n % p;
  return q * b + (b < r ? b : r);
}

/// Range of block `b`.
inline Range block_range(i64 n, i64 p, i64 b) {
  const i64 lo = block_start(n, p, b);
  return Range{lo, lo + block_size(n, p, b)};
}

/// Index of the block that contains global index `i`.
i64 block_of_index(i64 n, i64 p, i64 i);

/// All p ranges of the canonical partition of [0, n).
std::vector<Range> partition(i64 n, i64 p);

/// ceil(a / b) for positive integers.
inline i64 ceil_div(i64 a, i64 b) {
  CA_ASSERT(b > 0);
  return (a + b - 1) / b;
}

}  // namespace ca3dmm
