#include "core/schedule.hpp"

#include <array>
#include <cstring>

#include <sanitizer/asan_interface.h>

#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "resilience/abft.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fiber.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;

namespace {

// Under ASan a poisoned gap follows every arena slot, so an overflow into
// the next slot is reported as between separate heap blocks.
constexpr i64 kSlotAlign = 64;
#ifdef __SANITIZE_ADDRESS__
constexpr i64 kSlotGap = kSlotAlign;
#else
constexpr i64 kSlotGap = 0;
#endif

i64 align_up(i64 bytes) {
  return (bytes + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
}

/// Arena bytes of a slot of `bytes` bytes at an aligned offset.
i64 slot_span(i64 bytes) { return align_up(bytes) + kSlotGap; }

/// The owned slots of one run: each is tracked, and unpoisoned, from its
/// alloc op to its free op or to an unwind. A redistribution's staging
/// slots sit in the tail behind the `packed` bytes of the schedule's own.
template <typename T>
struct Slots {
  std::byte* arena;
  i64 arena_bytes;
  i64 tail;  ///< offset of the staging tail
  std::array<T*, kSlotCount> ptr{};
  std::array<i64, kSlotCount> bytes{};

  Slots(std::byte* a, i64 packed, i64 n)
      : arena(a), arena_bytes(n), tail(align_up(packed)) {
    ASAN_POISON_MEMORY_REGION(arena, static_cast<size_t>(n));
  }
  ~Slots() {
    for (int i = 0; i < kSlotCount; ++i) free(i);
    ASAN_UNPOISON_MEMORY_REGION(arena, static_cast<size_t>(arena_bytes));
  }
  void alloc(const Op::Buf& b) {
    const i64 n = bytes[b.slot] = b.elems * static_cast<i64>(sizeof(T));
    ptr[b.slot] = reinterpret_cast<T*>(arena + b.off);
    ASAN_UNPOISON_MEMORY_REGION(ptr[b.slot], static_cast<size_t>(n));
    if (b.zero) {
      std::memset(ptr[b.slot], 0, static_cast<size_t>(n));
      simmpi::detail::host_counters().pool_zeroed_bytes += n;
    } else {
#ifndef NDEBUG
      std::memset(ptr[b.slot], 0xFF, static_cast<size_t>(n));  // NaN
#endif
    }
    simmpi::current_ctx()->track_alloc(n);
  }
  void free(int slot) {
    if (!ptr[slot]) return;
    simmpi::current_ctx()->track_free(bytes[slot]);
    ASAN_POISON_MEMORY_REGION(ptr[slot], static_cast<size_t>(bytes[slot]));
    ptr[slot] = nullptr;
  }
  /// Allocates the two staging slots of a redistribution that packs
  /// `send` and receives `recv` elements; raises unless the tail holds
  /// them, before anything is written.
  RedistStaging<T> stage(i64 send, i64 recv) {
    const i64 esize = static_cast<i64>(sizeof(T));
    const i64 recv_off = tail + slot_span(send * esize);
    CA_REQUIRE(recv_off + slot_span(recv * esize) <= arena_bytes,
               "rank %d: a redistribution stages %lld + %lld bytes, more than "
               "the %lld-byte tail its layouts' local sizes reserve (do a "
               "layout's rects overlap?)",
               simmpi::current_ctx()->world_rank,
               static_cast<long long>(send * esize),
               static_cast<long long>(recv * esize),
               static_cast<long long>(arena_bytes - tail));
    alloc(Op::Buf{kRedistSend, false, send, tail});
    alloc(Op::Buf{kRedistRecv, false, recv, recv_off});
    return {ptr[kRedistSend], ptr[kRedistRecv]};
  }
};

}  // namespace

void Schedule::pack() {
  struct Range { i64 lo, hi; std::uint8_t slot; };
  std::vector<Range> live;  // by offset
  arena_bytes_ = 0;
  for (Op& op : ops_) {
    if (op.kind == OpKind::kFree)
      std::erase_if(live, [&](const Range& r) { return r.slot == op.buf.slot; });
    if (op.kind != OpKind::kAlloc) continue;
    const i64 bytes = op.buf.elems * esize_;
    i64& off = op.buf.off = 0;
    auto at = live.begin();
    for (; at != live.end() && off + bytes + kSlotGap > at->lo; ++at)
      off = align_up(at->hi + kSlotGap);
    live.insert(at, Range{off, off + bytes, op.buf.slot});
    arena_bytes_ = std::max(arena_bytes_, off + bytes + kSlotGap);
  }
  ++simmpi::detail::host_counters().schedule_builds;
}

i64 run_arena_bytes(const Schedule& s,
                    const BlockLayout* const (&layouts)[kLayoutCount],
                    int me) {
  i64 tail = -1;  // no staging
  for (const Op& op : s.ops()) {
    if (op.kind != OpKind::kRedistribute) continue;
    const BlockLayout& src = *layouts[op.redist.from];
    const BlockLayout& dst = *layouts[op.redist.to];
    if (!is_identity(src, dst, op.redist.transpose))
      tail = std::max(tail, slot_span(src.local_size(me) * s.esize()) +
                                slot_span(dst.local_size(me) * s.esize()));
  }
  return tail < 0 ? s.arena_bytes() : align_up(s.arena_bytes()) + tail;
}

template <typename T>
void run_schedule(Comm& world, const Schedule& s, const ScheduleIo<T>& io) {
  CA_ASSERT(s.esize() == static_cast<i64>(sizeof(T)));
  CA_ASSERT(io.arena_bytes >= s.arena_bytes());
  Slots<T> bufs(io.arena, s.arena_bytes(), io.arena_bytes);
  std::array<Comm, kCommCount> comms;
  comms[kWorld] = world.dup();
  const auto in = [&](int slot) -> const T* {
    switch (slot) {
      case kUserA: return io.a;
      case kUserB: return io.b;
      case kUserC: return io.c;
      default: return bufs.ptr[static_cast<size_t>(slot)];
    }
  };
  const auto out = [&](int slot) -> T* {
    CA_ASSERT(slot != kUserA && slot != kUserB);
    return slot == kUserC ? io.c : bufs.ptr[static_cast<size_t>(slot)];
  };
  const Phase caller = world.phase();
  simmpi::PhaseScope restore(world, caller);
  double budget = 0;  // overlap budget of the comm ops since the last GEMM

  for (const Op& op : s.ops()) {
    world.set_phase(op.phase == kInheritPhase ? caller : op.phase);
    switch (op.kind) {
      case OpKind::kAlloc:
        bufs.alloc(op.buf);
        break;
      case OpKind::kFree:
        bufs.free(op.buf.slot);
        break;
      case OpKind::kRedistribute: {
        const Op::Redist& r = op.redist;
        redistribute<T>(comms[kWorld], *io.layouts[r.from], in(r.src),
                        *io.layouts[r.to], out(r.dst), r.transpose,
                        [&](i64 send, i64 recv) {
                          return bufs.stage(send, recv);
                        });
        bufs.free(kRedistSend);
        bufs.free(kRedistRecv);
        break;
      }
      case OpKind::kSplit: {
        const Op::Split& sp = op.split;
        const Comm* cached = sp.cacheable ? io.cached[sp.child] : nullptr;
        comms[sp.child] = cached ? cached->dup()
                                 : comms[sp.parent].split(sp.color, sp.key);
        break;
      }
      case OpKind::kAllgatherv:
      case OpKind::kReduceScatter: {
        const Op::Coll& c = op.coll;
        Comm& comm = comms[c.comm];
        if (c.use_cfg && s.coll()) comm.set_collective_config(*s.coll());
        const std::span<const i64> counts = s.counts(op);
        if (op.kind == OpKind::kAllgatherv)
          comm.allgatherv_bytes(in(c.src),
                                counts[static_cast<size_t>(comm.rank())],
                                out(c.dst), counts);
        else
          comm.reduce_scatter(in(c.src), out(c.dst), counts, c.custom_tree);
        break;
      }
      case OpKind::kBcast:
        comms[op.coll.comm].bcast(out(op.coll.dst), op.coll.elems,
                                  op.coll.root);
        break;
      case OpKind::kExchange: {
        const Op::Exchange& x = op.exchange;
        comms[x.comm].sendrecv(in(x.src) + x.src_off, x.send_elems, x.to,
                               out(x.dst) + x.dst_off, x.recv_elems, x.from,
                               x.tag);
        break;
      }
      case OpKind::kScan: {
        const Op::Scan& sc = op.scan;
        T* buf = out(sc.slot);
        const double bytes = static_cast<double>(sc.payload) * sizeof(T);
        if (!sc.decode) {
          resilience::abft_encode_msg<T>(buf, sc.payload);
          world.charge_local_work(bytes);
          break;
        }
        // Single corrupted payload bytes are corrected in place; anything
        // worse raises — detection never degrades to a wrong C block.
        world.charge_local_work(bytes);
        const resilience::AbftDecodeResult res =
            resilience::abft_decode_msg<T>(buf, sc.payload);
        if (res.outcome == resilience::AbftOutcome::kUncorrectable)
          throw Error(strprintf(
              "abft: uncorrectable corruption in %s message on grid rank %d "
              "(payload %lld elements)",
              sc.decode, comms[sc.comm].rank(),
              static_cast<long long>(sc.payload)));
        if (res.outcome != resilience::AbftOutcome::kClean)
          simmpi::current_ctx()->stats.abft_corrected++;
        break;
      }
      case OpKind::kCompute: {
        const Op::Compute& g = op.compute;
        gemm_blocked<T>(g.trans_a, false, g.m, g.n, g.k, T{1}, in(g.a), g.lda,
                        in(g.b), g.n, out(g.c), g.n);
        world.charge_compute(g.flops, g.bytes, op.budget ? budget : 0.0);
        if (op.budget) budget = 0;
        break;
      }
      case OpKind::kMarker:
        simmpi::trace_marker(op.marker.name, op.marker.bytes);
        break;
      case OpKind::kCopy: {
        const Op::Copy& cp = op.copy;
        const T* src = in(cp.src) + cp.src_off;
        T* dst = out(cp.dst) + cp.dst_off;
        if (cp.transpose) {
          for (i64 r = 0; r < cp.rows; ++r)
            for (i64 c = 0; c < cp.cols; ++c)
              dst[c * cp.dst_ld + r] = src[r * cp.src_ld + c];
        } else {
          for (i64 r = 0; r < cp.rows; ++r)
            std::memcpy(dst + r * cp.dst_ld, src + r * cp.src_ld,
                        static_cast<size_t>(cp.cols) * sizeof(T));
        }
        simmpi::detail::host_counters().copy_bytes +=
            cp.rows * cp.cols * static_cast<i64>(sizeof(T));
        break;
      }
    }
    if (op.budget && op.kind != OpKind::kCompute)
      budget += world.last_op_cost();
  }
}

template void run_schedule<float>(Comm&, const Schedule&,
                                  const ScheduleIo<float>&);
template void run_schedule<double>(Comm&, const Schedule&,
                                   const ScheduleIo<double>&);

}  // namespace ca3dmm
