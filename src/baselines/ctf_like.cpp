#include "baselines/ctf_like.hpp"

namespace ca3dmm {

void build_schedule(const CtfPlan& plan, int me, const simmpi::Machine& anchor,
                    bool trans_a, bool trans_b, Schedule& s) {
  const int P = plan.nranks();
  const i64 m = plan.m(), n = plan.n(), k = plan.k();
  // CTF's internal mapping stage: operands are shuffled into the framework's
  // own (cyclic, 1-D column) distribution before the contraction kernel
  // sees them — one extra full redistribution hop per operand. The copies
  // live until the end of the multiply.
  s.alloc(kATmp, (trans_a ? k : m) * block_size(trans_a ? m : k, P, me));
  s.alloc(kBTmp, (trans_b ? n : k) * block_size(trans_b ? k : n, P, me));
  s.set_phase(simmpi::Phase::kRedistribute);
  s.redistribute(kUserLayoutA, kUserA, kCyclicA, kATmp, false);
  s.redistribute(kUserLayoutB, kUserB, kCyclicB, kBTmp, false);
  s.set_phase(kInheritPhase);
  redistribute_in(s, plan.a_rect(me).size(), plan.b_rect(me).size(), trans_a,
                  trans_b, /*from_cyclic=*/true);
  redistribute_out(
      s, cosma_pipeline(plan, me, anchor.ctf_gemm_fraction(), s));
}

}  // namespace ca3dmm
