#include "baselines/ctf_like.hpp"

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;

void build_schedule(const CtfPlan& plan, int me, const simmpi::Machine& anchor,
                    bool trans_a, bool trans_b, Schedule& s) {
  const CosmaPlan& p = plan.inner;
  const int P = p.nranks();
  // CTF's internal mapping stage: operands are shuffled into the framework's
  // own (cyclic, 1-D column) distribution before the contraction kernel
  // sees them — one extra full redistribution hop per operand. The copies
  // live until the end of the multiply.
  s.alloc(kATmp, (trans_a ? p.k() : p.m()) *
                     block_size(trans_a ? p.m() : p.k(), P, me));
  s.alloc(kBTmp, (trans_b ? p.n() : p.k()) *
                     block_size(trans_b ? p.k() : p.n(), P, me));
  s.set_phase(Phase::kRedistribute);
  s.redistribute(kUserLayoutA, kUserA, kCyclicA, kATmp, false);
  s.redistribute(kUserLayoutB, kUserB, kCyclicB, kBTmp, false);
  s.set_phase(kInheritPhase);
  build_schedule(p, me, anchor, trans_a, trans_b, s, kCyclicA, kATmp,
                 kCyclicB, kBTmp);
}

template <typename T>
void ctf_multiply(Comm& world, const CtfPlan& plan, bool trans_a, bool trans_b,
                  const BlockLayout& a_layout, const T* a_local,
                  const BlockLayout& b_layout, const T* b_local,
                  const BlockLayout& c_layout, T* c_local) {
  const CosmaPlan& p = plan.inner;
  const BlockLayout a_cyc = BlockLayout::col_1d(
      trans_a ? p.k() : p.m(), trans_a ? p.m() : p.k(), p.nranks());
  const BlockLayout b_cyc = BlockLayout::col_1d(
      trans_b ? p.n() : p.k(), trans_b ? p.k() : p.n(), p.nranks());
  ScheduleIo<T> io;
  io.layouts[kCyclicA] = &a_cyc;
  io.layouts[kCyclicB] = &b_cyc;
  run_plan(
      world, p, trans_a, trans_b, a_layout, a_local, b_layout, b_local,
      c_layout, c_local,
      [&](Schedule& s) {
        build_schedule(plan, world.rank(), world.machine(), trans_a, trans_b,
                       s);
      },
      io);
}

template void ctf_multiply<float>(Comm&, const CtfPlan&, bool, bool,
                                  const BlockLayout&, const float*,
                                  const BlockLayout&, const float*,
                                  const BlockLayout&, float*);
template void ctf_multiply<double>(Comm&, const CtfPlan&, bool, bool,
                                   const BlockLayout&, const double*,
                                   const BlockLayout&, const double*,
                                   const BlockLayout&, double*);

}  // namespace ca3dmm
