#include "core/ca3dmm.hpp"

#include <vector>

namespace ca3dmm {

using simmpi::Comm;
using simmpi::Phase;

void build_schedule(const Ca3dmmPlan& plan, int me, const simmpi::Machine&,
                    bool trans_a, bool trans_b, Schedule& s) {
  const Ca3dmmOptions& opt = plan.options();
  const RankCoord co = plan.coord(me);
  const int sd = plan.s(), c = plan.c(), pk = plan.grid().pk;
  const i64 esize = s.esize();
  s.set_coll(opt.coll);

  // ---- step 4 (Alg. 1): redistribute A and B (all ranks participate) ----
  redistribute_in(s, plan.a_rect(me).size(), plan.b_rect(me).size(), trans_a,
                  trans_b);

  // Communicator splits. Colors are disjoint per split call; inactive ranks
  // pass color -1 (undefined).
  s.split(kWorld, kActive, co.active ? 0 : -1, me, true);
  int c_result = kCResult;  // my final C block (c_native local data)

  if (co.active) {
    const i64 mb = plan.m_range(co.I).size();
    const i64 nb = plan.n_range(co.J).size();
    thread_local std::vector<i64> kparts;  // the cost model builds P schedules
    const Range kg = plan.k_range(co.gk);
    kparts.resize(static_cast<size_t>(sd));
    for (int t = 0; t < sd; ++t)
      kparts[static_cast<size_t>(t)] = block_size(kg.size(), sd, t);
    const Engine2dShape sh{sd,   sd,     co.i,   co.j,     mb,
                           nb,   kparts, kparts, opt.abft, opt.overlap};
    s.split(kActive, kGrid, co.gk * c + co.gc, co.j * sd + co.i, true);

    // ---- step 5: replicate A or B across the c Cannon groups ----
    int a_op = kAInit, b_op = kBInit;
    if (c > 1) {
      s.split(kActive, kRepl, co.gk * sd * sd + co.j * sd + co.i, co.gc,
              true);
      s.set_phase(Phase::kReplicate);
      // Slice g of the replicated block is its ksub(.., g) share of the
      // block's k-part.
      if (plan.replicates_a()) {
        // Slice g is (mb x ksub_g) row-major; slices are column ranges of
        // the full (mb x kb) block, in order, so they interleave
        // column-wise into the assembled block.
        const i64 kb = kparts[static_cast<size_t>(co.j)];
        s.alloc(kGathered, mb * kb);
        const std::span<i64> sub =
            s.allgatherv(kRepl, kAInit, kGathered, c, true);
        for (int g = 0; g < c; ++g)
          sub[static_cast<size_t>(g)] = mb * block_size(kb, c, g) * esize;
        s.alloc(kABlk, mb * kb);
        s.marker("ca3dmm:assemble A", static_cast<double>(mb * kb) * esize);
        i64 src_off = 0, col_off = 0;
        for (int g = 0; g < c; ++g) {
          const i64 sz = block_size(kb, c, g);
          s.copy(kGathered, src_off, sz, kABlk, col_off, kb, mb, sz);
          src_off += mb * sz;
          col_off += sz;
        }
        a_op = kABlk;
        s.free(kAInit);
        s.free(kGathered);
      } else {
        // B slices are row ranges: the all-gather output is already the
        // row-major block.
        const i64 kb = kparts[static_cast<size_t>(co.i)];
        s.alloc(kBBlk, kb * nb);
        const std::span<i64> sub =
            s.allgatherv(kRepl, kBInit, kBBlk, c, true);
        for (int g = 0; g < c; ++g)
          sub[static_cast<size_t>(g)] = block_size(kb, c, g) * nb * esize;
        b_op = kBBlk;
        s.free(kBInit);
      }
      s.set_phase(kInheritPhase);
    }

    // ---- step 6: 2-D engine computes the partial C block ----
    s.alloc(kCPartial, mb * nb, /*zero=*/true);
    if (opt.use_summa)
      summa_schedule(s, sh, kGrid, a_op, b_op, kCPartial,
                     {kABlk, kBBlk, kAInit, kBInit});
    else
      cannon_schedule(s, sh, kGrid, a_op, b_op, kCPartial, opt.min_kblk, 0,
                      sd, {kABlk, kBBlk, kAInit, kBInit});

    // ---- step 7: reduce-scatter partial C across the pk k-task groups ----
    c_result = kCPartial;
    if (pk > 1) {
      s.split(kActive, kReduce, (co.gc * sd + co.j) * sd + co.i, co.gk, true);
      s.set_phase(Phase::kReduce);
      // Pack column sub-blocks in destination (gk) order (c_sub_cols); the
      // packed buffer then holds everything and the partial block is dead.
      s.marker("ca3dmm:pack C", static_cast<double>(mb * nb) * esize);
      s.alloc(kPacked, mb * nb);
      i64 pos = 0;
      for (int g = 0; g < pk; ++g) {
        const Range sub = block_range(nb, pk, g);
        s.copy(kCPartial, sub.lo, nb, kPacked, pos, sub.size(), mb,
               sub.size());
        pos += mb * sub.size();
      }
      s.free(kCPartial);
      s.alloc(kCResult, mb * block_size(nb, pk, co.gk));
      const std::span<i64> counts =
          s.reduce_scatter(kReduce, kPacked, kCResult, pk, false, true);
      for (int g = 0; g < pk; ++g)
        counts[static_cast<size_t>(g)] = mb * block_size(nb, pk, g);
      s.free(kPacked);
      s.set_phase(kInheritPhase);
      c_result = kCResult;
    }
  }

  // ---- step 8: redistribute C to the caller's layout (all ranks) ----
  redistribute_out(s, c_result);
}

PlanComms PlanComms::make(Comm& world, const Ca3dmmPlan& plan) {
  CA_REQUIRE(world.valid(), "PlanComms::make needs a valid communicator");
  CA_REQUIRE(world.size() == plan.nranks(),
             "plan is for %d ranks, comm has %d", plan.nranks(), world.size());
  CA_REQUIRE(plan.m() > 0, "plan is empty (default-constructed?)");
  // Only the split ops are read: no data ops, no arena.
  Schedule s(sizeof(double), /*with_data=*/false);
  build_schedule(plan, world.rank(), world.machine(), false, false, s);
  return make(world, s);
}

PlanComms PlanComms::make(Comm& world, const Schedule& s) {
  Comm comms[kCommCount];
  comms[kWorld] = world.dup();
  for (const Op& op : s.ops())
    if (op.kind == OpKind::kSplit && op.split.cacheable)
      comms[op.split.child] =
          comms[op.split.parent].split(op.split.color, op.split.key);
  PlanComms pc;
  pc.active = comms[kActive];
  pc.cannon = comms[kGrid];
  pc.repl = comms[kRepl];
  pc.reduce = comms[kReduce];
  return pc;
}

}  // namespace ca3dmm
