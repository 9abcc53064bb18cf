#include "simmpi/pool.hpp"

#include <algorithm>
#include <new>

namespace ca3dmm::simmpi {

namespace {
constexpr std::align_val_t kBlockAlign{64};
}  // namespace

std::byte* BufferPool::reserve(i64 bytes) {
  CA_ASSERT(bytes >= 0);
  if (bytes == 0) return data_;  // no use of the block
  if (bytes > stats_.live_bytes) {
    release();
    data_ = static_cast<std::byte*>(
        ::operator new(static_cast<size_t>(bytes), kBlockAlign));
    stats_.live_bytes = bytes;
    stats_.high_water_bytes = std::max(stats_.high_water_bytes, bytes);
    ++stats_.misses;
  } else if (!counted_) {
    ++stats_.hits;
  }
  counted_ = true;
  return data_;
}

void BufferPool::release() {
  if (data_) ::operator delete(data_, kBlockAlign);
  data_ = nullptr;
  stats_.live_bytes = 0;
}

}  // namespace ca3dmm::simmpi
