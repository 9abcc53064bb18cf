// exec_digest — a fixed, seeded execution matrix printed one line per run.
//
//   ./exec_digest [--workers N] [--check FILE]
//
// Runs every algorithm on the simulated cluster over uneven shapes with idle
// ranks, native / 1-D / 2-D user layouts and the four transpose pairs, plus
// ABFT with injected payload flips, no-overlap, a warm PgemmEngine and a
// heterogeneous topology with k weights. Each run prints one line of
// Cluster::aggregate_stats(): final vtime, per-phase time, bytes sent and
// inter-node bytes, compute load balance, peak tracked bytes, flops, splits,
// ABFT corrections, and an FNV-1a hash of every rank's C. Then come
// predict() and run_workload() for every algorithm (a predict row prints
// the same vtime, phase, inter-node, load-balance and peak columns), and
// last CA3DMM runs whose multi-shift windows flush mid-ring.
//
// Virtual time, bytes, peaks and C are deterministic, so the output is a
// byte-exact fingerprint of execution and must not depend on the number of
// fiber workers (--workers, default 1). With --check the output is compared
// line by line against FILE (tests/data/exec_digest.txt); the tool prints
// every differing line and exits 1 on any difference. A change that means
// to move numbers regenerates the file, and its diff lists the moved rows.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/ca3dmm.hpp"
#include "core/hetero.hpp"
#include "costmodel/drift.hpp"
#include "engine/engine.hpp"

using namespace ca3dmm;
using costmodel::Algo;
using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;
using simmpi::Phase;
using simmpi::Topology;

namespace {

constexpr int kPhases = static_cast<int>(Phase::kCount);

/// Four ranks per node, so groups mix intra- and inter-node links.
Machine digest_machine() {
  Machine m = Machine::unit_test();
  m.ranks_per_node = 4;
  m.cores_per_node = 4;
  return m;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

enum class Lay { kNative, kRow1d, kCol1d, kGrid2d };

const char* lay_name(Lay l) {
  switch (l) {
    case Lay::kNative: return "native";
    case Lay::kRow1d: return "row1d";
    case Lay::kCol1d: return "col1d";
    case Lay::kGrid2d: return "grid2d";
  }
  return "?";
}

/// A user layout of a rows x cols matrix over P ranks; `native` is the
/// plan's layout for it (used as is only when not transposed).
BlockLayout user_layout(Lay l, i64 rows, i64 cols, int P,
                        const BlockLayout& native) {
  switch (l) {
    case Lay::kNative: return native;
    case Lay::kRow1d: return BlockLayout::row_1d(rows, cols, P);
    case Lay::kCol1d: return BlockLayout::col_1d(rows, cols, P);
    case Lay::kGrid2d: {
      // A near-square pr x pc grid, column-major ranks; with P not a
      // multiple of pr the last ranks own nothing.
      int pr = 1;
      while ((pr + 1) * (pr + 1) <= P) ++pr;
      const int pc = P / pr;
      BlockLayout l(rows, cols, P);
      for (int j = 0; j < pc; ++j)
        for (int i = 0; i < pr; ++i) {
          const Rect r{block_range(rows, pr, i), block_range(cols, pc, j)};
          if (!r.empty()) l.add_rect(j * pr + i, r);
        }
      return l;
    }
  }
  return native;
}

/// How one executed run is set up.
struct Run {
  std::string name;
  int P = 0;
  i64 m = 0, n = 0, k = 0;
  bool ta = false, tb = false;
  Lay lay = Lay::kNative;
  Ca3dmmOptions opt{};            ///< baselines read only force_grid
  simmpi::FaultPlan faults{};     ///< payload flips
  bool cached_comms = false;      ///< CA3DMM through a PgemmEngine, two calls
  const Topology* topo = nullptr;  ///< null: homogeneous digest machine
};

class Digest {
 public:
  explicit Digest(int workers) : workers_(workers) {}

  const std::vector<std::string>& lines() const { return lines_; }

  void run(Algo algo, const Run& r) {
    std::visit(
        [&](const auto& plan) { execute(algo, r, plan); },
        costmodel::program_of(algo, {r.m, r.n, r.k, r.opt}, r.P).plan);
  }

  void predicted(Algo algo, const costmodel::Workload& w, int P,
                 const std::string& name) {
    const costmodel::Prediction p = costmodel::predict(algo, w, P, mach_);
    std::string s = strprintf("predict %s %s vt %.17g ph",
                              costmodel::algo_name(algo),
                              name.c_str(), p.t_total);
    for (int i = 0; i < kPhases; ++i) s += strprintf(" %.17g", p.phase_s[i]);
    s += inter_and_lb(p.inter_bytes_s, p.load_balance);
    s += strprintf(" peak %lld flops %.17g",
                   static_cast<long long>(p.peak_bytes), p.flops_per_rank);
    lines_.push_back(s);
  }

  void workload(Algo algo, const costmodel::Workload& w, int P,
                const std::string& name) {
    Cluster cl(P, mach_);
    cl.set_fiber_workers(workers_);
    costmodel::run_workload(algo, w, cl);
    emit(strprintf("workload %s %s", costmodel::algo_name(algo), name.c_str()), cl,
         std::vector<std::uint64_t>{});
  }

 private:
  template <typename Plan>
  void execute(Algo algo, const Run& r, const Plan& plan) {
    // Stored operands: op(A) is m x k, op(B) is k x n.
    const BlockLayout la = user_layout(
        r.ta ? Lay::kGrid2d : r.lay, r.ta ? r.k : r.m, r.ta ? r.m : r.k, r.P,
        plan.a_native());
    const BlockLayout lb = user_layout(
        r.tb ? Lay::kGrid2d : r.lay, r.tb ? r.n : r.k, r.tb ? r.k : r.n, r.P,
        plan.b_native());
    const BlockLayout lc = user_layout(r.lay, r.m, r.n, r.P, plan.c_native());
    std::vector<std::vector<double>> c(static_cast<size_t>(r.P));
    auto cl = r.topo ? std::make_unique<Cluster>(*r.topo)
                     : std::make_unique<Cluster>(r.P, mach_);
    cl->set_fiber_workers(workers_);
    if (!r.faults.empty()) cl->set_fault_plan(r.faults);
    cl->run([&](Comm& world) {
      const int me = world.rank();
      std::vector<double> a, b;
      fill_local(la, me, 1, a);
      fill_local(lb, me, 2, b);
      std::vector<double>& cm = c[static_cast<size_t>(me)];
      cm.assign(static_cast<size_t>(lc.local_size(me)), 0.0);
      if constexpr (std::is_same_v<Plan, Ca3dmmPlan>) {
        if (r.cached_comms) {
          engine::PgemmEngine eng(world);
          const engine::Request<double> req{
              r.m, r.n, r.k, r.ta, r.tb, &la, a.data(), &lb, b.data(), &lc,
              cm.data(), r.opt};
          for (int call = 0; call < 2; ++call) eng.multiply(req);
          return;
        }
      }
      run_plan<double>(world, plan, r.ta, r.tb, la, a.data(), lb, b.data(), lc,
                       cm.data());
    });
    std::vector<std::uint64_t> hashes;
    for (const auto& cm : c)
      hashes.push_back(
          fnv1a(0xcbf29ce484222325ull, cm.data(), cm.size() * sizeof(double)));
    emit(strprintf("exec %s %s P=%d %lldx%lldx%lld %c%c %s",
                   costmodel::algo_name(algo),
                   r.name.c_str(), r.P, static_cast<long long>(r.m),
                   static_cast<long long>(r.n), static_cast<long long>(r.k),
                   r.ta ? 'T' : 'N', r.tb ? 'T' : 'N', lay_name(r.lay)),
         *cl, hashes);
  }

  void emit(const std::string& head, const Cluster& cl,
            const std::vector<std::uint64_t>& c_hashes) {
    const simmpi::RankStats s = cl.aggregate_stats();
    std::string line = head + strprintf(" vt %.17g ph", s.vtime);
    for (int i = 0; i < kPhases; ++i) line += strprintf(" %.17g", s.phase_s[i]);
    line += " sent";
    for (int i = 0; i < kPhases; ++i)
      line += strprintf(" %.17g", s.bytes_sent_s[i]);
    line += inter_and_lb(s.inter_bytes_s, s.load_balance);
    line += strprintf(" peak %lld flops %.17g splits %lld abft %lld",
                      static_cast<long long>(s.peak_bytes), s.flops,
                      static_cast<long long>(s.comm_splits),
                      static_cast<long long>(s.abft_corrected));
    if (!c_hashes.empty()) {
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (const std::uint64_t x : c_hashes) h = fnv1a(h, &x, sizeof x);
      line += strprintf(" c %016" PRIx64, h);
    }
    lines_.push_back(line);
  }

  /// Per-phase inter-node bytes (summed over ranks) and the compute-phase
  /// load balance, printed alike by executed and predicted rows.
  static std::string inter_and_lb(const double (&inter)[kPhases], double lb) {
    std::string s = " inter";
    for (int i = 0; i < kPhases; ++i) s += strprintf(" %.17g", inter[i]);
    return s + strprintf(" lb %.17g", lb);
  }

  int workers_;
  Machine mach_ = digest_machine();
  std::vector<std::string> lines_;
};

const Algo kAlgos[] = {Algo::kCa3dmm, Algo::kCa3dmmSumma, Algo::kCosma,
                       Algo::kCarma,  Algo::kCtf,         Algo::kSumma,
                       Algo::kP25d};

void build(Digest& d) {
  struct Shape {
    const char* name;
    int P;
    i64 m, n, k;
  };
  // CARMA needs a power-of-two P, so it runs the P=8 and P=16 shapes only.
  const Shape shapes[] = {{"even", 8, 64, 64, 64},
                          {"uneven", 7, 50, 37, 61},
                          {"tall", 12, 150, 20, 45},
                          {"largek", 16, 24, 30, 200}};
  for (const Algo algo : kAlgos)
    for (const Shape& sh : shapes) {
      if (algo == Algo::kCarma && (sh.P & (sh.P - 1)) != 0) continue;
      for (const Lay lay :
           {Lay::kNative, Lay::kRow1d, Lay::kCol1d, Lay::kGrid2d}) {
        Run r{sh.name, sh.P, sh.m, sh.n, sh.k};
        r.lay = lay;
        d.run(algo, r);
      }
      // Transposed operands are stored in 2-D layouts; C stays native.
      for (const auto& [ta, tb] : {std::pair{true, false},
                                   std::pair{false, true},
                                   std::pair{true, true}}) {
        Run r{sh.name, sh.P, sh.m, sh.n, sh.k, ta, tb};
        d.run(algo, r);
      }
    }

  // ABFT on Cannon traffic with single-byte flips on a 2x2x1 grid.
  for (const bool flips : {false, true}) {
    Run r{flips ? "abft-flips" : "abft", 4, 48, 48, 48};
    r.opt.abft = true;
    r.opt.force_grid = ProcGrid{2, 2, 1};
    if (flips)  // an A shift and a B shift into rank 0
      for (const auto& [src, dst, tag] :
           {std::tuple{2, 0, 101}, std::tuple{1, 0, 201}})
        r.faults.flips.push_back(
            {.src = src, .dst = dst, .tag = tag, .offset = 8, .mask = 0x10});
    d.run(Algo::kCa3dmm, r);
  }
  // ABFT with replication and a k split, native and 2-D layouts.
  for (const Lay lay : {Lay::kNative, Lay::kGrid2d}) {
    Run r{"abft-3d", 16, 40, 72, 96};
    r.lay = lay;
    r.opt.abft = true;
    r.opt.force_grid = ProcGrid{2, 4, 2};
    d.run(Algo::kCa3dmm, r);
  }
  // No overlap, both inner engines.
  for (const Algo algo : {Algo::kCa3dmm, Algo::kCa3dmmSumma})
    for (const Lay lay : {Lay::kNative, Lay::kCol1d}) {
      Run r{"no-overlap", 12, 70, 90, 110};
      r.lay = lay;
      r.opt.overlap = false;
      d.run(algo, r);
    }
  // A warm engine: two calls on one plan, its communicators split once.
  for (const Lay lay : {Lay::kNative, Lay::kRow1d}) {
    Run r{"cached-comms", 10, 64, 48, 80};
    r.lay = lay;
    r.cached_comms = true;
    d.run(Algo::kCa3dmm, r);
  }
  // Heterogeneous topology: a slow and a fast cluster, weighted k split.
  Machine slow = digest_machine();
  slow.ranks_per_node = 2;
  slow.flops_per_core = 2e8;
  Machine fast = slow;
  fast.flops_per_core = 8e8;
  static const Topology topo = Topology::make(
      {simmpi::ClusterSpec{"slow", slow, 8},
       simmpi::ClusterSpec{"fast", fast, 8}},
      simmpi::InterClusterLink{5e-6, 5e8});
  for (const Lay lay : {Lay::kNative, Lay::kGrid2d}) {
    Run r{"hetero", 16, 48, 48, 160};
    r.lay = lay;
    r.topo = &topo;
    r.opt.force_grid = ProcGrid{2, 2, 4};
    r.opt.k_weights = k_group_weights(topo, *r.opt.force_grid);
    d.run(Algo::kCa3dmm, r);
  }

  // The cost model and run_workload over every algorithm, both layout modes.
  for (const Algo algo : kAlgos)
    for (const bool custom : {false, true}) {
      costmodel::Workload w{96, 80, 112};
      w.custom_layout = custom;
      const std::string name = custom ? "custom" : "native";
      d.predicted(algo, w, 16, name);
      d.workload(algo, w, 16, name);
    }

  // Multi-shift aggregation with a small min_kblk over uneven k-parts:
  // windows flush mid-ring, and neighbours flush at different steps.
  struct Window {
    const char* name;
    int P;
    i64 m, n, k;
    ProcGrid grid;
    i64 min_kblk;
  };
  const Window windows[] = {{"multishift", 16, 37, 29, 23, {4, 4, 1}, 12},
                            {"multishift-3d", 36, 45, 62, 70, {3, 6, 2}, 24}};
  for (const Window& w : windows)
    for (const bool abft : {false, true})
      for (const Lay lay : {Lay::kNative, Lay::kGrid2d}) {
        Run r{abft ? std::string(w.name) + "-abft" : w.name, w.P, w.m, w.n,
              w.k};
        r.lay = lay;
        r.opt.abft = abft;
        r.opt.force_grid = w.grid;
        r.opt.min_kblk = w.min_kblk;
        d.run(Algo::kCa3dmm, r);
      }
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--workers N] [--check FILE]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 1;
  const char* check = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--workers") && i + 1 < argc)
      workers = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--check") && i + 1 < argc)
      check = argv[++i];
    else
      usage(argv[0]);
  }
  if (workers < 1 || workers > 64) usage(argv[0]);

  Digest d(workers);
  build(d);
  if (!check) {
    for (const std::string& l : d.lines()) std::printf("%s\n", l.c_str());
    return 0;
  }
  std::ifstream in(check);
  if (!in) {
    std::fprintf(stderr, "exec_digest: cannot read %s\n", check);
    return 2;
  }
  std::vector<std::string> want;
  for (std::string l; std::getline(in, l);) want.push_back(l);
  int bad = 0;
  const size_t n = std::max(want.size(), d.lines().size());
  for (size_t i = 0; i < n; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < d.lines().size() ? &d.lines()[i] : nullptr;
    if (w && g && *w == *g) continue;
    ++bad;
    std::printf("line %zu\n  want: %s\n  got:  %s\n", i + 1,
                w ? w->c_str() : "(none)", g ? g->c_str() : "(none)");
  }
  std::printf("exec_digest: %zu runs on %d worker(s), %d differing line(s) "
              "against %s\n",
              d.lines().size(), workers, bad, check);
  return bad == 0 ? 0 : 1;
}
