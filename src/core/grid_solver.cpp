#include "core/grid_solver.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace ca3dmm {

double grid_surface(i64 m, i64 n, i64 k, const ProcGrid& g) {
  // Exact per-block extents: the largest block is ceil(dim/p); total surface
  // uses the nominal eq. (4) form but with ceil extents so degenerate grids
  // (p > dim) do not look artificially cheap.
  const double dm = static_cast<double>(ceil_div(m, g.pm));
  const double dn = static_cast<double>(ceil_div(n, g.pn));
  const double dk = static_cast<double>(ceil_div(k, g.pk));
  // 2 * (pm*kn + pn*mk + pk*mn) evaluated as per-process block surfaces
  // summed over the grid.
  const double procs = static_cast<double>(g.active());
  return 2.0 * procs * (dm * dk + dk * dn + dm * dn);
}

double grid_objective(i64 m, i64 n, i64 k, const ProcGrid& g,
                      double flop_word_ratio) {
  const double dm = static_cast<double>(ceil_div(m, g.pm));
  const double dn = static_cast<double>(ceil_div(n, g.pn));
  const double dk = static_cast<double>(ceil_div(k, g.pk));
  const double work =
      static_cast<double>(m) * n * k / static_cast<double>(g.active());
  return work + flop_word_ratio * (dm * dk + dk * dn + dm * dn);
}

double grid_memory_elems(i64 m, i64 n, i64 k, const ProcGrid& g) {
  // Eq. (11) evaluated with ceil-based per-rank block extents, like
  // grid_surface: the nominal m*k/P form is the average, and for
  // non-divisible shapes it underestimates the worst rank's working set, so
  // the max_memory_elems feasibility check could admit grids whose measured
  // peak exceeds the budget at runtime. The widest rank of the 2-D engine
  // dual-buffers an mb x kb A block and a kb x nb B block and accumulates an
  // mb x nb C partial, with kb the widest Cannon k-slice (the k range of a
  // replication group, ceil(k/pk), split over s = min(pm, pn) shifts).
  // Divisible shapes reduce exactly to the nominal eq. (11) value.
  const double mb = static_cast<double>(ceil_div(m, g.pm));
  const double nb = static_cast<double>(ceil_div(n, g.pn));
  const double kb =
      static_cast<double>(ceil_div(ceil_div(k, g.pk), g.s()));
  return 2.0 * kb * (mb + nb) + mb * nb;
}

namespace {

/// Lexicographic fitness: smaller is better — the composite objective,
/// then utilization (sub-target (6)), then deterministic tie-breaks that
/// favour cheap collectives (small pk) and low replication.
struct Fitness {
  double cost;
  int neg_active;
  int pk;
  int c;
  int pm;

  auto tie() const { return std::make_tuple(cost, neg_active, pk, c, pm); }
  bool operator<(const Fitness& o) const { return tie() < o.tie(); }
};

Fitness fitness(i64 m, i64 n, i64 k, const ProcGrid& g, double ratio) {
  return Fitness{grid_objective(m, n, k, g, ratio), -g.active(), g.pk, g.c(),
                 g.pm};
}

/// Calls visit(g) for every grid g that accept(g) admits and that meets
/// the utilization floor of constraint (5), in (pm, pk, pn) order. Pass 1
/// finds the floor: floor(l P), or the best reachable utilization when the
/// clamps make that unreachable (tiny problems). Raises if no grid is
/// feasible.
template <typename Accept, typename Visit>
void feasible_grids(i64 m, i64 n, i64 k, int P, double l, Accept&& accept,
                    Visit&& visit) {
  // Never split a dimension more ways than its extent: a grid factor beyond
  // the dimension only idles processes inside the grid.
  const auto clamp = [P](i64 dim) {
    return static_cast<int>(std::min<i64>(dim, P));
  };
  const int pm_max = clamp(m), pn_max = clamp(n), pk_max = clamp(k);

  int max_active = 0;
  for (int pm = 1; pm <= pm_max; ++pm)
    for (int pk = 1; pk <= pk_max && pk * pm <= P; ++pk)
      for (int pn = std::min(pn_max, P / (pm * pk)); pn >= 1; --pn) {
        const ProcGrid g{pm, pn, pk};
        if (g.active() <= max_active) break;  // pn descending: no improvement
        if (accept(g)) {
          max_active = g.active();
          break;
        }
      }
  CA_REQUIRE(max_active > 0,
             "no feasible process grid for P=%d under the given constraints "
             "(memory budget too tight?)",
             P);
  const int min_active =
      std::min(static_cast<int>(std::floor(l * P)), max_active);

  for (int pm = 1; pm <= pm_max; ++pm)
    for (int pk = 1; pk <= pk_max && pk * pm <= P; ++pk)
      for (int pn = 1, pn_lim = std::min(pn_max, P / (pm * pk));
           pn <= pn_lim; ++pn) {
        const ProcGrid g{pm, pn, pk};
        if (g.active() >= min_active && accept(g)) visit(g);
      }
}

/// The best feasible grid by fitness.
template <typename Accept>
ProcGrid best_grid(i64 m, i64 n, i64 k, int P, double l, double ratio,
                   Accept&& accept) {
  ProcGrid best;
  Fitness best_fit{};
  bool have = false;
  feasible_grids(m, n, k, P, l, accept, [&](const ProcGrid& g) {
    const Fitness f = fitness(m, n, k, g, ratio);
    if (!have || f < best_fit) {
      best = g;
      best_fit = f;
      have = true;
    }
  });
  return best;
}

bool cannon_ok(const ProcGrid& g) {
  const int lo = g.s(), hi = g.pm > g.pn ? g.pm : g.pn;
  return hi % lo == 0;
}

/// find_grid's admission test: the Cannon constraint (7) when enabled, and
/// the memory budget.
auto grid_filter(i64 m, i64 n, i64 k, const GridOptions& opt) {
  return [=](const ProcGrid& g) {
    if (opt.cannon_compatible && !cannon_ok(g)) return false;
    return opt.max_memory_elems <= 0 ||
           grid_memory_elems(m, n, k, g) <=
               static_cast<double>(opt.max_memory_elems);
  };
}

}  // namespace

ProcGrid find_grid(i64 m, i64 n, i64 k, int P, const GridOptions& opt) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && P > 0,
             "find_grid needs positive dimensions, got m=%lld n=%lld k=%lld P=%d",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k), P);
  return best_grid(m, n, k, P, opt.l, opt.flop_word_ratio,
                   grid_filter(m, n, k, opt));
}

std::vector<ProcGrid> find_grid_candidates(i64 m, i64 n, i64 k, int P,
                                           int count,
                                           const GridOptions& opt) {
  CA_REQUIRE(m > 0 && n > 0 && k > 0 && P > 0,
             "find_grid_candidates needs positive dimensions, got m=%lld "
             "n=%lld k=%lld P=%d",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k), P);
  if (count <= 0) return {};
  std::vector<std::pair<Fitness, ProcGrid>> all;
  feasible_grids(m, n, k, P, opt.l, grid_filter(m, n, k, opt),
                 [&](const ProcGrid& g) {
                   all.emplace_back(fitness(m, n, k, g, opt.flop_word_ratio),
                                    g);
                 });
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<ProcGrid> out;
  for (size_t i = 0; i < all.size() && static_cast<int>(i) < count; ++i)
    out.push_back(all[i].second);
  return out;
}

ProcGrid find_grid_cosma(i64 m, i64 n, i64 k, int P, double l) {
  // COSMA's source enumerates all grids and picks the one with
  // m/pm ~ k/pk ~ n/pn, i.e. the surface-minimizing grid, with no Cannon
  // constraint (paper §III-C).
  return best_grid(m, n, k, P, l, 100.0, [](const ProcGrid&) { return true; });
}

ProcGrid find_grid_ctf(i64 m, i64 n, i64 k, int P) {
  (void)m;
  (void)n;
  (void)k;
  // CTF folds its cyclic processor grid: choose replication depth c and a
  // near-square 2-D grid of the remaining P/c processes, ignoring the matrix
  // shape — which is why CTF's grids are often far from GEMM-optimal.
  ProcGrid best{1, 1, 1};
  i64 best_active = 0;
  for (int c = 1; c <= P; ++c) {
    if (P / c < 1) break;
    const int q = P / c;
    const int r = static_cast<int>(std::sqrt(static_cast<double>(q)));
    for (int pr = std::max(1, r - 1); pr <= r + 1; ++pr) {
      if (pr > q) continue;
      const int pc = q / pr;
      const i64 active = static_cast<i64>(pr) * pc * c;
      // Prefer utilization; among equal utilization prefer square 2-D grids
      // and shallow replication (CTF defaults to c that divides evenly).
      const bool better =
          active > best_active ||
          (active == best_active &&
           std::abs(pr - pc) < std::abs(best.pm - best.pn)) ||
          (active == best_active && std::abs(pr - pc) == std::abs(best.pm - best.pn) &&
           c < best.pk);
      if (better) {
        best = ProcGrid{pr, pc, c};
        best_active = active;
      }
    }
  }
  return best;
}

}  // namespace ca3dmm
