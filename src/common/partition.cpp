#include "common/partition.hpp"

namespace ca3dmm {

i64 block_of_index(i64 n, i64 p, i64 i) {
  CA_ASSERT(i >= 0 && i < n);
  const i64 q = n / p, r = n % p;
  // First r blocks have size q+1 and cover [0, r*(q+1)).
  if (q == 0) return i;  // n < p: block b owns index b for b < n
  const i64 big = r * (q + 1);
  if (i < big) return i / (q + 1);
  return r + (i - big) / q;
}

std::vector<Range> partition(i64 n, i64 p) {
  std::vector<Range> out;
  out.reserve(static_cast<size_t>(p));
  for (i64 b = 0; b < p; ++b) out.push_back(block_range(n, p, b));
  return out;
}

}  // namespace ca3dmm
