#include "core/plan.hpp"

#include <cmath>

namespace ca3dmm {

Ca3dmmPlan Ca3dmmPlan::make(i64 m, i64 n, i64 k, int nranks,
                            const Ca3dmmOptions& opt) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0,
             "CA3DMM needs positive dimensions, got m=%lld n=%lld k=%lld",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k));
  CA_REQUIRE(nranks > 0, "CA3DMM needs at least one rank, got %d", nranks);
  CA_REQUIRE(opt.min_kblk >= 0,
             "min_kblk must be >= 0 (0 = one GEMM per shift), got %lld",
             static_cast<long long>(opt.min_kblk));
  Ca3dmmPlan p;
  p.m_ = m;
  p.n_ = n;
  p.k_ = k;
  p.nranks_ = nranks;
  p.opt_ = opt;
  if (opt.force_grid.has_value()) {
    p.grid_ = *opt.force_grid;
    CA_REQUIRE(p.grid_.pm >= 1 && p.grid_.pn >= 1 && p.grid_.pk >= 1,
               "forced grid %dx%dx%d has a non-positive dimension",
               p.grid_.pm, p.grid_.pn, p.grid_.pk);
    CA_REQUIRE(p.grid_.active() <= nranks,
               "forced grid %dx%dx%d exceeds %d ranks", p.grid_.pm, p.grid_.pn,
               p.grid_.pk, nranks);
    const int lo = p.grid_.s(), hi = std::max(p.grid_.pm, p.grid_.pn);
    CA_REQUIRE(hi % lo == 0,
               "forced grid %dx%dx%d violates the Cannon constraint (7)",
               p.grid_.pm, p.grid_.pn, p.grid_.pk);
  } else {
    // Constraint (7) is kept for both inner engines: the SUMMA variant here
    // runs on the same Cannon-group topology, which is exactly the §III-E
    // comparison setting ("assume CA3DMM-C and CA3DMM-S use the same
    // process grid").
    p.grid_ = find_grid(m, n, k, nranks, opt.grid);
  }
  if (!opt.k_weights.empty()) {
    CA_REQUIRE(static_cast<int>(opt.k_weights.size()) == p.grid_.pk,
               "k_weights has %d entries but the grid has pk=%d k-task "
               "groups",
               static_cast<int>(opt.k_weights.size()), p.grid_.pk);
    for (size_t g = 0; g < opt.k_weights.size(); ++g)
      CA_REQUIRE(opt.k_weights[g] > 0, "k_weights[%zu] = %g must be > 0", g,
                 opt.k_weights[g]);
  }
  p.natives_ = NativeLayouts::of(p);
  return p;
}

Range Ca3dmmPlan::k_range(int gk) const {
  const std::vector<double>& w = opt_.k_weights;
  if (w.empty()) return block_range(k_, grid_.pk, gk);
  CA_ASSERT(gk >= 0 && gk < grid_.pk);
  double total = 0;
  for (const double x : w) total += x;
  // Cumulative rounding: bound(g) = round(k * prefix_g / total). The prefix
  // sums are nondecreasing, so consecutive bounds never cross and the pk
  // slices tile [0, k) exactly.
  double prefix = 0;
  i64 lo = 0;
  for (int g = 0; g <= gk; ++g) {
    lo = g == 0 ? 0 : static_cast<i64>(std::llround(
                          static_cast<double>(k_) * prefix / total));
    prefix += w[static_cast<size_t>(g)];
  }
  const i64 hi = gk + 1 == grid_.pk
                     ? k_
                     : static_cast<i64>(std::llround(
                           static_cast<double>(k_) * prefix / total));
  return Range{lo, hi};
}

RankCoord Ca3dmmPlan::coord(int world_rank) const {
  CA_ASSERT(world_rank >= 0 && world_rank < nranks_);
  RankCoord co;
  if (world_rank >= active()) return co;  // idle rank
  co.active = true;
  const int group_sz = grid_.pm * grid_.pn;
  co.gk = world_rank / group_sz;
  const int t = world_rank % group_sz;
  const int ss = s() * s();
  co.gc = t / ss;
  const int q = t % ss;
  co.i = q % s();
  co.j = q / s();
  if (replicates_a()) {
    // pn > pm: Cannon groups tile the n dimension.
    co.I = co.i;
    co.J = co.gc * s() + co.j;
  } else {
    co.I = co.gc * s() + co.i;
    co.J = co.j;
  }
  return co;
}

int Ca3dmmPlan::rank_of(int gk, int gc, int i, int j) const {
  return gk * grid_.pm * grid_.pn + gc * s() * s() + j * s() + i;
}

Range Ca3dmmPlan::kpart(int gk, int t) const {
  const Range kg = k_range(gk);
  const Range local = block_range(kg.size(), s(), t);
  return Range{kg.lo + local.lo, kg.lo + local.hi};
}

Range Ca3dmmPlan::ksub(int gk, int t, int g) const {
  const Range kp = kpart(gk, t);
  const Range local = block_range(kp.size(), c(), g);
  return Range{kp.lo + local.lo, kp.lo + local.hi};
}

Range Ca3dmmPlan::c_sub_cols(int J, int gk) const {
  const Range nj = n_range(J);
  const Range local = block_range(nj.size(), grid_.pk, gk);
  return Range{nj.lo + local.lo, nj.lo + local.hi};
}

Rect Ca3dmmPlan::a_rect(int world_rank) const {
  const RankCoord co = coord(world_rank);
  if (!co.active) return Rect{};
  // Replicated: A block (row i, pre-skew k-part j), replication slice gc.
  // Otherwise fully distributed: rows of this Cannon group's m slice.
  return replicates_a() ? Rect{m_range(co.i), ksub(co.gk, co.j, co.gc)}
                        : Rect{m_range(co.I), kpart(co.gk, co.j)};
}

Rect Ca3dmmPlan::b_rect(int world_rank) const {
  const RankCoord co = coord(world_rank);
  if (!co.active) return Rect{};
  // A replicated: B fully distributed, (pre-skew k-part i, this group's n
  // slice). Otherwise B replicated: block (k-part i, col j), slice gc.
  return replicates_a() ? Rect{kpart(co.gk, co.i), n_range(co.J)}
                        : Rect{ksub(co.gk, co.i, co.gc), n_range(co.j)};
}

Rect Ca3dmmPlan::c_rect(int world_rank) const {
  const RankCoord co = coord(world_rank);
  if (!co.active) return Rect{};
  return Rect{m_range(co.I), c_sub_cols(co.J, co.gk)};
}

double Ca3dmmPlan::volume_lower_bound() const {
  const double mnk = static_cast<double>(m_) * n_ * k_;
  return 3.0 * std::pow(mnk / nranks_, 2.0 / 3.0);
}

double Ca3dmmPlan::comm_volume_per_rank() const {
  // Elements read + updated per process: the three faces of its subdomain
  // (paper §III-A): dm*dk (A) + dk*dn (B) + dm*dn (C).
  const double dm = static_cast<double>(m_) / grid_.pm;
  const double dn = static_cast<double>(n_) / grid_.pn;
  const double dk = static_cast<double>(k_) / grid_.pk;
  return dm * dk + dk * dn + dm * dn;
}

}  // namespace ca3dmm
