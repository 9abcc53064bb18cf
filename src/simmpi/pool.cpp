#include "simmpi/pool.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace ca3dmm::simmpi {

namespace {
thread_local BufferPool* tls_pool = nullptr;
}  // namespace

BufferPool::~BufferPool() { trim(); }

void BufferPool::note_footprint() {
  const i64 footprint = stats_.live_bytes + stats_.idle_bytes;
  if (footprint > stats_.high_water_bytes) stats_.high_water_bytes = footprint;
}

void BufferPool::evict_to(i64 target) {
  // Largest idle allocations go first: they reclaim the most bytes per
  // freed buffer, and small same-shape scratch (the common steady-state
  // reuse) survives the longest.
  while (stats_.idle_bytes > target && !free_.empty()) {
    auto it = std::prev(free_.end());
    ::operator delete(it->second.back());
    it->second.pop_back();
    stats_.idle_bytes -= it->first;
    ++stats_.trims;
    if (it->second.empty()) free_.erase(it);
  }
}

void* BufferPool::acquire(i64 bytes) {
  CA_ASSERT(bytes > 0);
  void* p;
  auto it = free_.find(bytes);
  if (it != free_.end() && !it->second.empty()) {
    p = it->second.back();
    it->second.pop_back();
    if (it->second.empty()) free_.erase(it);
    stats_.idle_bytes -= bytes;
    ++stats_.hits;
  } else {
    ++stats_.misses;
    // A fresh allocation is the only way the footprint grows: under a
    // budget, make room for it by evicting idle allocations first.
    if (footprint_budget_bytes_ > 0)
      evict_to(footprint_budget_bytes_ - stats_.live_bytes - bytes);
    p = ::operator new(static_cast<size_t>(bytes));
  }
  stats_.live_bytes += bytes;
  note_footprint();
#ifndef NDEBUG
  std::memset(p, 0xFF, static_cast<size_t>(bytes));
#endif
  return p;
}

void BufferPool::give_back(void* p, i64 bytes) {
  if (p == nullptr) return;
  CA_ASSERT(bytes > 0);
  stats_.live_bytes -= bytes;
  if (bytes > max_idle_bytes_) {
    // Too big to pool at all: free it and leave the idle lists alone.
    ::operator delete(p);
    ++stats_.trims;
  } else {
    evict_to(max_idle_bytes_ - bytes);
    free_[bytes].push_back(p);
    stats_.idle_bytes += bytes;
  }
  note_footprint();
}

i64 BufferPool::trim(i64 target_idle_bytes) {
  const i64 before = stats_.idle_bytes;
  evict_to(std::max<i64>(target_idle_bytes, 0));
  note_footprint();
  return before - stats_.idle_bytes;
}

BufferPool* current_buffer_pool() { return tls_pool; }

namespace detail {

BufferPool* swap_tls_pool(BufferPool* next) {
  BufferPool* prev = tls_pool;
  tls_pool = next;
  return prev;
}

}  // namespace detail

PoolScope::PoolScope(BufferPool* pool) : saved_(tls_pool) { tls_pool = pool; }

PoolScope::~PoolScope() { tls_pool = saved_; }

std::byte* PoolBlock::reserve(i64 bytes) {
  if (bytes > 0 && bytes <= bytes_) return data_;
  if (data_) {
    pool_->give_back(std::exchange(data_, nullptr), std::exchange(bytes_, 0));
    if (bytes > 0) pool_->trim();
  }
  if (bytes > 0) data_ = static_cast<std::byte*>(pool_->acquire(bytes));
  bytes_ = bytes;
  return data_;
}

}  // namespace ca3dmm::simmpi
