#include "core/schedule.hpp"

#include <array>
#include <cstring>

#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "resilience/abft.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fiber.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;
using simmpi::TrackedBuffer;

template <typename T>
void run_schedule(Comm& world, const Schedule& s, const ScheduleIo<T>& io) {
  CA_ASSERT(s.esize() == static_cast<i64>(sizeof(T)));
  std::array<TrackedBuffer<T>, kSlotCount> bufs;
  std::array<Comm, kCommCount> comms;
  comms[kWorld] = world.dup();
  const auto in = [&](int slot) -> const T* {
    switch (slot) {
      case kUserA: return io.a;
      case kUserB: return io.b;
      case kUserC: return io.c;
      default: return bufs[static_cast<size_t>(slot)].data();
    }
  };
  const auto out = [&](int slot) -> T* {
    CA_ASSERT(slot != kUserA && slot != kUserB);
    return slot == kUserC ? io.c : bufs[static_cast<size_t>(slot)].data();
  };
  const Phase caller = world.phase();
  simmpi::PhaseScope restore(world, caller);
  double budget = 0;  // overlap budget of the comm ops since the last GEMM

  for (const Op& op : s.ops()) {
    world.set_phase(op.phase == kInheritPhase ? caller : op.phase);
    switch (op.kind) {
      case OpKind::kAlloc:
        bufs[op.buf.slot].resize(op.buf.elems, op.buf.zero);
        break;
      case OpKind::kFree:
        bufs[op.buf.slot].release();
        break;
      case OpKind::kRedistribute: {
        const Op::Redist& r = op.redist;
        redistribute<T>(comms[kWorld], *io.layouts[r.from], in(r.src),
                        *io.layouts[r.to], out(r.dst), r.transpose);
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
        const std::span<const i64> sp = s.counts(op);
        const std::vector<i64> counts(sp.begin(), sp.end());
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
