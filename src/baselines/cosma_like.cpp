#include "baselines/cosma_like.hpp"

#include <algorithm>

#include "linalg/gemm.hpp"

namespace ca3dmm {

using simmpi::Phase;

CosmaPlan CosmaPlan::make(i64 m, i64 n, i64 k, int nranks,
                          std::optional<ProcGrid> force_grid) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && nranks > 0,
             "COSMA baseline needs positive dimensions");
  CosmaPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  p.grid_ = force_grid.value_or(find_grid_cosma(m, n, k, nranks));
  CA_REQUIRE(p.grid_.active() <= nranks, "forced grid exceeds rank count");

  // Strategy: repeatedly split the largest not-yet-split dimension by its
  // whole grid factor (the multi-way generalization of CARMA's bisection the
  // paper describes; e.g. 32x32x64 on 2x2x4 -> k/4, then m/2, then n/2).
  double em = static_cast<double>(m), en = static_cast<double>(n),
         ek = static_cast<double>(k);
  bool left_m = p.grid_.pm > 1, left_n = p.grid_.pn > 1,
       left_k = p.grid_.pk > 1;
  while (left_m || left_n || left_k) {
    char pick = 0;
    double best = -1;
    if (left_k && ek > best) {
      pick = 'k';
      best = ek;
    }
    if (left_m && em > best) {
      pick = 'm';
      best = em;
    }
    if (left_n && en > best) {
      pick = 'n';
      best = en;
    }
    switch (pick) {
      case 'k':
        p.steps_.push_back({'k', p.grid_.pk});
        ek /= p.grid_.pk;
        left_k = false;
        break;
      case 'm':
        p.steps_.push_back({'m', p.grid_.pm});
        em /= p.grid_.pm;
        left_m = false;
        break;
      default:
        p.steps_.push_back({'n', p.grid_.pn});
        en /= p.grid_.pn;
        left_n = false;
        break;
    }
  }
  p.natives_ = NativeLayouts::of(p);
  return p;
}

CosmaPlan CosmaPlan::make_carma(i64 m, i64 n, i64 k, int nranks) {
  CA_REQUIRE(nranks > 0 && (nranks & (nranks - 1)) == 0,
             "CARMA requires a power-of-two process count, got %d", nranks);
  CosmaPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  // Recursive bisection of the largest current dimension (Demmel et al.).
  double em = static_cast<double>(m), en = static_cast<double>(n),
         ek = static_cast<double>(k);
  int pm = 1, pn = 1, pk = 1;
  for (int P = nranks; P > 1; P /= 2) {
    if (ek >= em && ek >= en) {
      p.steps_.push_back({'k', 2});
      ek /= 2;
      pk *= 2;
    } else if (em >= en) {
      p.steps_.push_back({'m', 2});
      em /= 2;
      pm *= 2;
    } else {
      p.steps_.push_back({'n', 2});
      en /= 2;
      pn *= 2;
    }
  }
  p.grid_ = ProcGrid{pm, pn, pk};
  p.natives_ = NativeLayouts::of(p);
  return p;
}

CosmaPlan::Codes CosmaPlan::codes(int world_rank) const {
  Codes c;
  if (world_rank >= active()) return c;
  c.active = true;
  int g = active();
  int q = world_rank;
  for (const CosmaStep& st : steps_) {
    const int sub_sz = g / st.ways;
    const int sub = q / sub_sz;
    q %= sub_sz;
    g = sub_sz;
    switch (st.dim) {
      case 'm': c.mi = c.mi * st.ways + sub; break;
      case 'n': c.ni = c.ni * st.ways + sub; break;
      case 'k': c.ki = c.ki * st.ways + sub; break;
      default: CA_ASSERT(false);
    }
  }
  return c;
}

namespace {

/// Row slice `idx` of `parts` of a leaf rect.
Rect row_slice(const Rect& leaf, int parts, int idx) {
  const Range rows = block_range(leaf.r.size(), parts, idx);
  return Rect{Range{leaf.r.lo + rows.lo, leaf.r.lo + rows.hi}, leaf.c};
}

}  // namespace

Rect CosmaPlan::a_rect(int world_rank) const {
  const Codes c = codes(world_rank);
  if (!c.active) return Rect{};
  return row_slice(Rect{m_leaf(c.mi), k_leaf(c.ki)}, grid_.pn, c.ni);
}

Rect CosmaPlan::b_rect(int world_rank) const {
  const Codes c = codes(world_rank);
  if (!c.active) return Rect{};
  return row_slice(Rect{k_leaf(c.ki), n_leaf(c.ni)}, grid_.pm, c.mi);
}

Rect CosmaPlan::c_rect(int world_rank) const {
  const Codes c = codes(world_rank);
  if (!c.active) return Rect{};
  return row_slice(Rect{m_leaf(c.mi), n_leaf(c.ni)}, grid_.pk, c.ki);
}

void build_schedule(const CosmaPlan& plan, int me, const simmpi::Machine&,
                    bool trans_a, bool trans_b, Schedule& s) {
  redistribute_in(s, plan.a_rect(me).size(), plan.b_rect(me).size(), trans_a,
                  trans_b);
  redistribute_out(s, cosma_pipeline(plan, me, 1.0, s));
}

int cosma_pipeline(const CosmaPlan& plan, int me, double gemm_fraction,
                   Schedule& s) {
  const CosmaPlan::Codes co = plan.codes(me);
  const ProcGrid& g = plan.grid();
  const i64 esize = s.esize();

  s.split(kWorld, kActive, co.active ? 0 : -1, me, false);
  int c_result = kCResult;
  if (co.active) {
    const i64 mb = plan.m_leaf(co.mi).size(), nb = plan.n_leaf(co.ni).size(),
              kb = plan.k_leaf(co.ki).size();
    int a_op = kAInit, b_op = kBInit;

    // ---- replicate A across the p_n group sharing (mi, ki) ----
    if (g.pn > 1) {
      s.split(kActive, kRepl, co.mi * g.pk + co.ki, co.ni, false);
      s.set_phase(Phase::kReplicate);
      s.alloc(kABlk, mb * kb);
      const std::span<i64> counts =
          s.allgatherv(kRepl, kAInit, kABlk, g.pn, false);
      for (int t = 0; t < g.pn; ++t)
        counts[static_cast<size_t>(t)] = block_size(mb, g.pn, t) * kb * esize;
      a_op = kABlk;
      s.free(kAInit);
      s.set_phase(kInheritPhase);
    }
    // ---- replicate B across the p_m group sharing (ki, ni) ----
    if (g.pm > 1) {
      s.split(kActive, kReplB,
              g.pm * g.pk /*disjoint color space*/ + co.ki * g.pn + co.ni,
              co.mi, false);
      s.set_phase(Phase::kReplicate);
      s.alloc(kBBlk, kb * nb);
      const std::span<i64> counts =
          s.allgatherv(kReplB, kBInit, kBBlk, g.pm, false);
      for (int t = 0; t < g.pm; ++t)
        counts[static_cast<size_t>(t)] = block_size(kb, g.pm, t) * nb * esize;
      b_op = kBBlk;
      s.free(kBInit);
      s.set_phase(kInheritPhase);
    }

    // ---- one local GEMM (CTF charges its derated contraction rate) ----
    s.alloc(kCPartial, mb * nb, /*zero=*/true);
    s.set_phase(Phase::kCompute);
    s.compute(a_op, b_op, kCPartial, mb, nb, kb, kb,
              gemm_flops(mb, nb, kb) / gemm_fraction,
              gemm_bytes(mb, nb, kb, esize), false);
    s.set_phase(kInheritPhase);
    s.free(kABlk);
    s.free(kBBlk);
    s.free(kAInit);
    s.free(kBInit);

    // ---- reduce partial C across the p_k group sharing (mi, ni) ----
    c_result = kCPartial;
    if (g.pk > 1) {
      s.split(kActive, kReduce, co.mi * g.pn + co.ni, co.ki, false);
      s.set_phase(Phase::kReduce);
      s.alloc(kCResult, block_size(mb, g.pk, co.ki) * nb);
      // Row slices: the partial C buffer is already segment-ordered. COSMA
      // "crafts the binary reduction tree" itself (paper §IV-B), so it does
      // not hit the MPI library's large-message reduce-scatter degradation.
      const std::span<i64> counts = s.reduce_scatter(
          kReduce, kCPartial, kCResult, g.pk, /*custom_tree=*/true, false);
      for (int t = 0; t < g.pk; ++t)
        counts[static_cast<size_t>(t)] = block_size(mb, g.pk, t) * nb;
      s.set_phase(kInheritPhase);
      s.free(kCPartial);
      c_result = kCResult;
    }
  }
  return c_result;
}

}  // namespace ca3dmm
