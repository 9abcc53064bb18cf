// Heterogeneous multi-cluster topologies (simmpi/topology.hpp) and the
// node-mapping fixes they exposed:
//
//  * Topology basics: explicit rank -> (cluster, node) map, globally unique
//    physical node ids, survivor restriction that PINS placement.
//  * Bugfix 1: group_link must derive the intra-node byte fraction from the
//    group's actual node multiset — the contiguous-placement (r-1)/(p-1)
//    shortcut undercharges inter-node traffic for strided/uneven groups.
//  * Bugfix 2: straggler attribution and trace pids must follow PHYSICAL
//    nodes after ResilientRunner's shrink renumbers the survivors.
//  * Heterogeneity-aware planning (core/hetero.hpp): weighted k partitioning
//    proportional to per-cluster GEMM rate beats the equal split on an
//    asymmetric CPU+GPU topology, with identical numerics.
//  * The 1e-6 drift gate holds for cross-cluster two-level schedules.
//  * Tuning keys carry the topology signature (schema v2).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/ca3dmm.hpp"
#include "core/hetero.hpp"
#include "costmodel/drift.hpp"
#include "costmodel/model.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "resilience/recovery.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/topology.hpp"
#include "simmpi/trace.hpp"
#include "tuner/db.hpp"

namespace ca3dmm {
namespace {

using simmpi::ClusterSpec;
using simmpi::Cluster;
using simmpi::CollAlgo;
using simmpi::Comm;
using simmpi::FaultPlan;
using simmpi::GroupProfile;
using simmpi::InterClusterLink;
using simmpi::LinkParams;
using simmpi::Machine;
using simmpi::RankStats;
using simmpi::StragglerPolicy;
using simmpi::Topology;

constexpr std::uint64_t kSeedA = 51, kSeedB = 52;

Machine cpu_machine() {
  Machine m = Machine::unit_test();
  m.ranks_per_node = 2;
  return m;
}

/// GPU-like cluster: 4x the CPU rate through the device path (huge PCIe so
/// the staging term stays negligible, zero launch overhead for exact-value
/// assertions).
Machine gpu_machine() {
  Machine m = cpu_machine();
  m.use_gpu = true;
  m.gpu_flops = 4e9;
  m.gpu_peak_flops = 4e9;
  m.pcie_bandwidth = 1e15;
  m.gpu_gemm_overhead = 0.0;
  return m;
}

/// 8 CPU ranks + 8 GPU ranks joined by an inter-cluster link.
Topology cpu_gpu_topology() {
  return Topology::make({ClusterSpec{"cpu", cpu_machine(), 8},
                         ClusterSpec{"gpu", gpu_machine(), 8}},
                        InterClusterLink{5e-6, 5e8});
}

/// Runs C = A*B on `cl` under `opt` (native layouts) and returns every
/// rank's C block plus the aggregate stats.
std::vector<std::vector<double>> run_multiply(Cluster& cl, i64 m, i64 n,
                                              i64 k, const Ca3dmmOptions& opt,
                                              RankStats* stats = nullptr) {
  const int P = cl.nranks();
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P, opt);
  const BlockLayout a_nat = plan.a_native();
  const BlockLayout b_nat = plan.b_native();
  const BlockLayout c_nat = plan.c_native();
  std::vector<std::vector<double>> out(static_cast<size_t>(P));
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(a_nat, me, kSeedA, a);
    fill_local(b_nat, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(c_nat.local_size(me)));
    ca3dmm_multiply<double>(world, plan, false, false, a_nat, a.data(), b_nat,
                            b.data(), c_nat, c.data());
    out[static_cast<size_t>(me)] = std::move(c);
  });
  if (stats) *stats = cl.aggregate_stats();
  return out;
}

// ---------------------------------------------------------------------------
// Topology basics
// ---------------------------------------------------------------------------

TEST(Topology, MapsRanksToClustersAndPhysicalNodes) {
  const Topology topo = cpu_gpu_topology();
  EXPECT_EQ(topo.nranks(), 16);
  EXPECT_EQ(topo.nclusters(), 2);
  EXPECT_FALSE(topo.single_cluster());
  // Contiguous assignment: cpu owns world ranks 0..7, gpu 8..15.
  EXPECT_EQ(topo.cluster_of_rank(0), 0);
  EXPECT_EQ(topo.cluster_of_rank(7), 0);
  EXPECT_EQ(topo.cluster_of_rank(8), 1);
  EXPECT_EQ(topo.cluster_of_rank(15), 1);
  // Node ids are globally unique: cpu nodes 0..3, gpu nodes 4..7.
  EXPECT_EQ(topo.node_of_rank(0), 0);
  EXPECT_EQ(topo.node_of_rank(7), 3);
  EXPECT_EQ(topo.node_of_rank(8), 4);
  EXPECT_EQ(topo.node_of_rank(15), 7);
  EXPECT_EQ(topo.nnodes(), 8);
  EXPECT_EQ(topo.cluster_of_node(3), 0);
  EXPECT_EQ(topo.cluster_of_node(4), 1);
  // Per-rank machines differ across the boundary.
  EXPECT_FALSE(topo.machine_of_rank(7).use_gpu);
  EXPECT_TRUE(topo.machine_of_rank(8).use_gpu);
  // The anchor machine is cluster 0's.
  EXPECT_FALSE(topo.machine().use_gpu);
}

TEST(Topology, SignatureSeparatesLayoutsAndZeroesForLegacy) {
  // The legacy single-machine model signs as 0 so v1-era tuner keys stay
  // valid; anything else must sign nonzero and distinctly.
  EXPECT_EQ(Topology::homogeneous(16, cpu_machine()).signature(), 0u);
  const std::uint64_t het = cpu_gpu_topology().signature();
  EXPECT_NE(het, 0u);
  const std::uint64_t cpu16 =
      Topology::make({ClusterSpec{"a", cpu_machine(), 8},
                      ClusterSpec{"b", cpu_machine(), 8}})
          .signature();
  EXPECT_NE(cpu16, 0u);
  EXPECT_NE(cpu16, het);
}

TEST(Topology, RestrictedToPinsPhysicalNodes) {
  // 6 ranks, 2 per node -> nodes 0,0,1,1,2,2. Dropping node 1's ranks must
  // leave the survivors on nodes 0 and 2 — NOT renumber them onto 0 and 1
  // the way rank/ranks_per_node would.
  const Topology topo = Topology::homogeneous(6, cpu_machine());
  const Topology shrunk = topo.restricted_to({0, 1, 4, 5});
  ASSERT_EQ(shrunk.nranks(), 4);
  EXPECT_EQ(shrunk.node_of_rank(0), 0);
  EXPECT_EQ(shrunk.node_of_rank(1), 0);
  EXPECT_EQ(shrunk.node_of_rank(2), 2);
  EXPECT_EQ(shrunk.node_of_rank(3), 2);
  EXPECT_EQ(shrunk.nnodes(), 2);
  EXPECT_EQ(shrunk.node_ids(), (std::vector<int>{0, 2}));
  EXPECT_EQ(shrunk.cluster_of_node(1), -1);  // no rank lives there any more
  // The shrunk map is no longer the contiguous division -> nonzero signature.
  EXPECT_NE(shrunk.signature(), 0u);
  // The legacy division would claim rank 2 sits on node 1 — the bug this
  // test pins down.
  EXPECT_NE(shrunk.node_of_rank(2), shrunk.machine().node_of_rank(2));
}

// ---------------------------------------------------------------------------
// Bugfix 1: exact node-multiset intra-node byte fraction
// ---------------------------------------------------------------------------

TEST(GroupLink, UnevenPlacementChargesExactInterNodeFraction) {
  // 4 ranks per node, intra-node links much faster than the NIC, so an
  // intra-fraction error shows up directly in the mixed beta.
  Machine mach = Machine::unit_test();
  mach.ranks_per_node = 4;
  mach.mem_bandwidth = 40e9;  // beta_intra = rpn/mem_bw = 1e-10
  mach.alpha_intra = 1e-7;
  const Topology topo = Topology::homogeneous(16, mach);

  // Group {0, 2, 4}: node 0 holds two ranks, node 1 one. Exact pair
  // counting: 2*1 ordered intra pairs of 3*2 total = 1/3. The legacy
  // contiguous shortcut says (max_rpn-1)/(p-1) = (2-1)/(3-1) = 1/2 —
  // overstating intra traffic, i.e. UNDERcharging the NIC.
  const std::vector<int> group{0, 2, 4};
  const GroupProfile exact = GroupProfile::from_topology(topo, group);
  EXPECT_NEAR(exact.intra_frac, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(simmpi::group_inter_frac(exact), 2.0 / 3.0, 1e-12);

  // from_world_ranks (the Machine-based path) must agree — the fix covers
  // both constructors.
  const GroupProfile via_machine = GroupProfile::from_world_ranks(mach, group);
  EXPECT_NEAR(via_machine.intra_frac, exact.intra_frac, 1e-15);

  // A hand-built profile with the same aggregates carries no multiset and
  // falls back to the legacy shortcut (sentinel intra_frac = -1).
  GroupProfile legacy;
  legacy.size = exact.size;
  legacy.nodes = exact.nodes;
  legacy.max_ranks_per_node = exact.max_ranks_per_node;
  legacy.single_node = false;
  ASSERT_LT(legacy.intra_frac, 0.0);
  EXPECT_NEAR(simmpi::group_inter_frac(legacy), 1.0 / 2.0, 1e-12);

  // The regression: the legacy link prices strictly less inter-node traffic,
  // so every bandwidth-bound collective on this group was undercharged.
  const LinkParams l_exact = simmpi::group_link(mach, exact);
  const LinkParams l_legacy = simmpi::group_link(mach, legacy);
  EXPECT_GT(l_exact.beta, l_legacy.beta);
  const double bytes = 1e6;
  EXPECT_GT(simmpi::t_allgather(l_exact, bytes, 3),
            simmpi::t_allgather(l_legacy, bytes, 3));
}

TEST(GroupLink, StridedReplicationGroupMatchesNodeMultiset) {
  // CA3DMM's replication groups stride by s^2; on 4-rank nodes a stride-4
  // group lands every member on a different node. Exact fraction: 0.
  Machine mach = Machine::unit_test();
  mach.ranks_per_node = 4;
  const Topology topo = Topology::homogeneous(16, mach);
  const GroupProfile g = GroupProfile::from_topology(topo, {0, 4, 8, 12});
  EXPECT_EQ(g.nodes, 4);
  EXPECT_EQ(g.max_ranks_per_node, 1);
  EXPECT_NEAR(g.intra_frac, 0.0, 1e-15);
  EXPECT_NEAR(simmpi::group_inter_frac(g), 1.0, 1e-15);
}

// ---------------------------------------------------------------------------
// Bugfix 2: physical placement survives shrink-and-replan
// ---------------------------------------------------------------------------

TEST(Recovery, StragglerAttributionSurvivesShrink) {
  // 6 ranks on 3 nodes (2 per node). Attempt 1 loses rank 0 (node 0) to a
  // kill; the survivors are renumbered 0..4. The straggler fault pins
  // PHYSICAL node 1 — whose ranks are old 2 and 3, renumbered 1 and 2.
  // Deriving nodes from the new numbering (r / ranks_per_node) would slam
  // the slowdown onto new ranks 2,3 = old ranks 3,4 — old rank 4 lives on
  // node 2 — and the degraded-node exclusion would shoot the wrong ranks.
  Machine mach = Machine::unit_test();
  mach.ranks_per_node = 2;
  resilience::ResilientRunner runner(
      6, mach, resilience::RetryPolicy{.max_attempts = 3});
  FaultPlan fp;
  fp.kills.push_back({.rank = 0, .at_op = 1});
  fp.stragglers.push_back({.node = 1, .factor = 50.0});
  runner.set_fault_plan(fp);
  StragglerPolicy sp;
  sp.enabled = true;
  sp.degrade_factor = 5.0;
  sp.min_lag_s = 1e-6;
  runner.set_straggler_policy(sp);

  const resilience::RecoveryReport rep = runner.run([](Comm& c) {
    for (int i = 0; i < 3; ++i) {
      c.charge_compute(1e6, 0);
      c.barrier();
    }
  });

  EXPECT_TRUE(rep.ok);
  ASSERT_EQ(rep.attempts_used(), 3);
  // Attempt 1: the kill fires before any barrier completes.
  EXPECT_EQ(rep.attempts[0].failed_world_ranks, (std::vector<int>{0}));
  // Attempt 2: the straggler policy must degrade PHYSICAL node 1 and fail
  // exactly its ranks — old world ranks 2 and 3.
  EXPECT_EQ(rep.attempts[1].degraded_nodes, (std::vector<int>{1}));
  EXPECT_EQ(rep.attempts[1].failed_world_ranks, (std::vector<int>{2, 3}));
  // Attempt 3 runs clean on old ranks {1, 4, 5} — nodes 0 and 2.
  EXPECT_TRUE(rep.attempts[2].ok);
  EXPECT_EQ(rep.final_nranks, 3);
  EXPECT_EQ(rep.surviving_world_ranks, (std::vector<int>{1, 4, 5}));
}

TEST(Trace, ShrunkClusterKeepsPhysicalNodePids) {
  // A cluster built on a survivor topology must emit trace process metadata
  // for the PHYSICAL nodes (0 and 2), not the contiguous renumbering (0, 1).
  const Topology topo =
      Topology::homogeneous(6, cpu_machine()).restricted_to({0, 1, 4, 5});
  Cluster cl(topo);
  cl.set_trace(true);
  cl.run([](Comm& c) { c.barrier(); });
  const std::string path = "test_hetero_trace.json";
  simmpi::write_chrome_trace_file(cl, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  std::remove(path.c_str());
  EXPECT_NE(trace.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"node 2\""), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"node 1\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Heterogeneous execution: numerics
// ---------------------------------------------------------------------------

struct Shape {
  const char* cls;
  i64 m, n, k;
};

TEST(HeteroExec, OracleAcrossShapeClasses) {
  const Topology topo = cpu_gpu_topology();
  const int P = topo.nranks();
  const Shape shapes[] = {
      {"square", 48, 48, 48},
      {"large-k", 16, 16, 256},
      {"large-mn", 96, 80, 16},
      {"skewed", 192, 24, 48},
  };
  for (const Shape& sh : shapes) {
    SCOPED_TRACE(sh.cls);
    const Ca3dmmOptions opt = make_hetero_options(topo, sh.m, sh.n, sh.k, P);
    const Ca3dmmPlan plan = Ca3dmmPlan::make(sh.m, sh.n, sh.k, P, opt);

    // Dense reference.
    Matrix<double> a(sh.m, sh.k), b(sh.k, sh.n), c_ref(sh.m, sh.n);
    a.fill_random(kSeedA);
    b.fill_random(kSeedB);
    gemm_ref<double>(false, false, sh.m, sh.n, sh.k, 1.0, a.data(), b.data(),
                     c_ref.data());

    Cluster cl(topo);
    const std::vector<std::vector<double>> got =
        run_multiply(cl, sh.m, sh.n, sh.k, opt);
    const BlockLayout c_nat = plan.c_native();
    for (int r = 0; r < P; ++r) {
      i64 pos = 0;
      for (const Rect& rect : c_nat.rects_of(r))
        for (i64 i = rect.r.lo; i < rect.r.hi; ++i)
          for (i64 j = rect.c.lo; j < rect.c.hi; ++j)
            ASSERT_NEAR(got[static_cast<size_t>(r)][static_cast<size_t>(pos++)],
                        c_ref(i, j), 1e-11 * static_cast<double>(sh.k + 1))
                << "rank " << r << " C(" << i << "," << j << ")";
    }

    // Machine speed never feeds the arithmetic: the same plan on a
    // homogeneous cluster returns bit-identical blocks.
    Cluster cl_hom(P, cpu_machine());
    const std::vector<std::vector<double>> hom =
        run_multiply(cl_hom, sh.m, sh.n, sh.k, opt);
    for (int r = 0; r < P; ++r) {
      ASSERT_EQ(got[static_cast<size_t>(r)].size(),
                hom[static_cast<size_t>(r)].size());
      for (size_t i = 0; i < got[static_cast<size_t>(r)].size(); ++i)
        ASSERT_EQ(got[static_cast<size_t>(r)][i], hom[static_cast<size_t>(r)][i])
            << "rank " << r << " element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Heterogeneity-aware planning: weighted k split
// ---------------------------------------------------------------------------

TEST(HeteroPlan, AlignmentAndWeights) {
  const Topology topo = cpu_gpu_topology();
  // 2x2x4 k-task groups of 4 contiguous ranks: the cluster boundary at rank
  // 8 falls on a group boundary.
  EXPECT_TRUE(grid_aligned_with_clusters(topo, ProcGrid{2, 2, 4}));
  // Groups of 3 straddle rank 8.
  EXPECT_FALSE(grid_aligned_with_clusters(topo, ProcGrid{3, 1, 5}));

  const std::vector<double> w = k_group_weights(topo, ProcGrid{2, 2, 4});
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1e9);   // cpu rate
  EXPECT_DOUBLE_EQ(w[1], 1e9);
  EXPECT_DOUBLE_EQ(w[2], 4e9);   // gpu rate
  EXPECT_DOUBLE_EQ(w[3], 4e9);

  const Ca3dmmOptions opt = make_hetero_options(topo, 48, 48, 160, 16);
  ASSERT_TRUE(opt.force_grid.has_value());
  EXPECT_TRUE(grid_aligned_with_clusters(topo, *opt.force_grid));
  EXPECT_FALSE(opt.k_weights.empty());

  // On a single-cluster topology the call is a no-op.
  const Ca3dmmOptions hom = make_hetero_options(
      Topology::homogeneous(16, cpu_machine()), 48, 48, 160, 16);
  EXPECT_FALSE(hom.force_grid.has_value());
  EXPECT_TRUE(hom.k_weights.empty());
}

TEST(HeteroPlan, WeightedKRangePartitionsExactly) {
  Ca3dmmOptions opt;
  opt.force_grid = ProcGrid{2, 2, 4};
  opt.k_weights = {1.0, 1.0, 4.0, 4.0};
  const Ca3dmmPlan plan = Ca3dmmPlan::make(48, 48, 160, 16, opt);
  i64 covered = 0;
  i64 prev_hi = 0;
  for (int gk = 0; gk < 4; ++gk) {
    const Range r = plan.k_range(gk);
    EXPECT_EQ(r.lo, prev_hi) << "gk=" << gk;
    prev_hi = r.hi;
    covered += r.size();
  }
  EXPECT_EQ(prev_hi, 160);
  EXPECT_EQ(covered, 160);
  // Weight-proportional: 160 * {0.1, 0.1, 0.4, 0.4} = {16, 16, 64, 64}.
  EXPECT_EQ(plan.k_range(0).size(), 16);
  EXPECT_EQ(plan.k_range(1).size(), 16);
  EXPECT_EQ(plan.k_range(2).size(), 64);
  EXPECT_EQ(plan.k_range(3).size(), 64);
}

TEST(HeteroPlan, WeightedKSplitBeatsEqualSplitOnExecutedVtime) {
  // Slow compute (2e7 vs 8e7 flop/s, same fabric) so the GEMM dominates the
  // run: the equal k split leaves the fast cluster idle 3/4 of the compute
  // phase, which is exactly the imbalance the weighted split removes.
  Machine slow = cpu_machine();
  slow.flops_per_core = 2e7;
  Machine fast = slow;
  fast.flops_per_core = 8e7;
  const Topology topo =
      Topology::make({ClusterSpec{"slow", slow, 8}, ClusterSpec{"fast", fast, 8}},
                     InterClusterLink{5e-6, 5e8});
  const i64 m = 48, n = 48, k = 160;
  const ProcGrid grid{2, 2, 4};

  Ca3dmmOptions opt_hom;
  opt_hom.force_grid = grid;
  RankStats st_hom;
  Cluster cl_hom(topo);
  run_multiply(cl_hom, m, n, k, opt_hom, &st_hom);

  Ca3dmmOptions opt_het = opt_hom;
  opt_het.k_weights = k_group_weights(topo, grid);
  RankStats st_het;
  Cluster cl_het(topo);
  run_multiply(cl_het, m, n, k, opt_het, &st_het);

  // The tentpole gate: the hetero-aware plan strictly beats the equal split
  // in executed virtual time, and its compute load balance is tighter.
  EXPECT_LT(st_het.vtime, st_hom.vtime)
      << "hetero " << st_het.vtime << " vs homogeneous " << st_hom.vtime;
  // Equal split: max/mean = 4 / ((4 + 1) / 2) = 1.6. Weighted: both
  // clusters' ranks finish their GEMMs together.
  EXPECT_GT(st_hom.load_balance, 1.5);
  EXPECT_LT(st_het.load_balance, st_hom.load_balance);
  EXPECT_LT(st_het.load_balance, 1.1);

  // The model surfaces the same load-balance ratio before running anything.
  costmodel::Workload w;
  w.m = m;
  w.n = n;
  w.k = k;
  w.force_grid = grid;
  const costmodel::Prediction p_hom =
      costmodel::predict(costmodel::Algo::kCa3dmm, w, 16, topo);
  w.k_weights = opt_het.k_weights;
  const costmodel::Prediction p_het =
      costmodel::predict(costmodel::Algo::kCa3dmm, w, 16, topo);
  EXPECT_NEAR(p_hom.load_balance, st_hom.load_balance,
              1e-9 * st_hom.load_balance);
  EXPECT_NEAR(p_het.load_balance, st_het.load_balance,
              1e-9 * st_het.load_balance);
  EXPECT_LT(p_het.t_total, p_hom.t_total);
}

// ---------------------------------------------------------------------------
// Drift gate: cross-cluster two-level schedules
// ---------------------------------------------------------------------------

/// Two same-machine clusters joined by a distinct (slow) link: the
/// cross-cluster schedules engage on every cluster-spanning group while the
/// per-rank timing stays symmetric, so the engine's collective entry times
/// match the model's independent per-rank accumulation exactly.
Topology symmetric_two_cluster_topology() {
  return Topology::make({ClusterSpec{"left", cpu_machine(), 8},
                         ClusterSpec{"right", cpu_machine(), 8}},
                        InterClusterLink{5e-5, 2e8});
}

TEST(HeteroDrift, CrossClusterReduceScatterInsideGate) {
  // 2x2x4: the reduction groups take one rank from each k-task group —
  // spanning both clusters — so the reduce-scatter resolves to the
  // two-level cross-cluster schedule.
  const Topology topo = symmetric_two_cluster_topology();
  costmodel::Workload w;
  w.m = 48;
  w.n = 48;
  w.k = 64;
  w.force_grid = ProcGrid{2, 2, 4};
  w.coll.emplace().reduce_scatter = CollAlgo::kCrossCluster;
  for (const costmodel::Algo algo :
       {costmodel::Algo::kCa3dmm, costmodel::Algo::kCa3dmmSumma}) {
    Cluster cl(topo);
    const costmodel::DriftReport rep = costmodel::check_drift(algo, w, cl);
    EXPECT_TRUE(rep.ok()) << costmodel::algo_name(algo) << "\n" << rep.table();
  }
}

TEST(HeteroDrift, CrossClusterAllgatherInsideGate) {
  // 8x2x1: c = 4, s = 2. Replication groups stride by s^2 = 4 across the
  // single k-task group of all 16 ranks, so each {idx, idx+4, idx+8,
  // idx+12} group spans both clusters and the replication all-gather takes
  // the cross-cluster schedule.
  const Topology topo = symmetric_two_cluster_topology();
  costmodel::Workload w;
  w.m = 128;
  w.n = 32;
  w.k = 32;
  w.force_grid = ProcGrid{8, 2, 1};
  w.coll.emplace().allgather = CollAlgo::kCrossCluster;
  Cluster cl(topo);
  const costmodel::DriftReport rep =
      costmodel::check_drift(costmodel::Algo::kCa3dmm, w, cl);
  EXPECT_TRUE(rep.ok()) << rep.table();
}

TEST(HeteroDrift, AutoResolvesToCrossClusterAndStaysInsideGate) {
  // kAuto must route every cluster-spanning group to the cross-cluster
  // schedule in the engine and the model alike.
  const Topology topo = symmetric_two_cluster_topology();
  costmodel::Workload w;
  w.m = 48;
  w.n = 48;
  w.k = 64;
  w.force_grid = ProcGrid{2, 2, 4};
  w.coll = simmpi::CollectiveConfig::tuned();
  Cluster cl(topo);
  const costmodel::DriftReport rep =
      costmodel::check_drift(costmodel::Algo::kCa3dmm, w, cl);
  EXPECT_TRUE(rep.ok()) << rep.table();
}

TEST(HeteroDrift, WeightedKSplitTotalAndMemoryInsideGate) {
  // k_weights thread through Workload -> Ca3dmmOptions identically, so the
  // model reproduces the executed TOTAL vtime and peak memory of a weighted
  // partition exactly. Per-phase attribution is not gated here: uneven k
  // slices make ranks block at sync points, and the engine charges that
  // wait into whichever phase the rank happens to be in, which the model's
  // independent per-rank accumulation does not mirror phase-by-phase.
  const Topology topo = symmetric_two_cluster_topology();
  costmodel::Workload w;
  w.m = 48;
  w.n = 48;
  w.k = 160;
  w.force_grid = ProcGrid{2, 2, 4};
  w.k_weights = {1.0, 1.0, 3.0, 3.0};
  w.coll.emplace().reduce_scatter = CollAlgo::kCrossCluster;
  Cluster cl(topo);
  const costmodel::DriftReport rep =
      costmodel::check_drift(costmodel::Algo::kCa3dmm, w, cl);
  EXPECT_FALSE(rep.total.flagged) << rep.table();
  EXPECT_FALSE(rep.peak_bytes_flagged) << rep.table();
}

// ---------------------------------------------------------------------------
// Tuner keys carry the topology signature
// ---------------------------------------------------------------------------

TEST(TunerDb, TopologyKeysSeparateEntriesAndRoundTrip) {
  const Topology het = cpu_gpu_topology();
  const Machine mach = cpu_machine();

  // Homogeneous Topology keys collide with legacy Machine keys (signature
  // 0), so v2 files keep sharing entries across the old and new call sites.
  const tuner::TuningKey legacy = tuner::make_key(512, 512, 512, 16, mach);
  const tuner::TuningKey hom =
      tuner::make_key(512, 512, 512, 16, Topology::homogeneous(16, mach));
  EXPECT_EQ(legacy, hom);
  EXPECT_EQ(hom.topo, 0u);

  // A heterogeneous topology never shares a decision with the homogeneous
  // layout of the same rank count.
  const tuner::TuningKey hkey = tuner::make_key(512, 512, 512, 16, het);
  EXPECT_EQ(hkey.topo, het.signature());
  EXPECT_NE(hkey, hom);

  // Round trip through the v2 text format, including the cross-cluster
  // schedule token.
  tuner::TuningDb db;
  tuner::TuningEntry e;
  e.key = hkey;
  e.rep_m = e.rep_n = e.rep_k = 512;
  e.config.grid = ProcGrid{2, 2, 4};
  e.config.coll.allgather = CollAlgo::kCrossCluster;
  e.config.coll.reduce_scatter = CollAlgo::kCrossCluster;
  e.predicted_s = 1.5;
  db.put(e);
  const std::string blob = db.serialize();
  EXPECT_NE(blob.find("xc"), std::string::npos);
  tuner::TuningDb db2;
  ASSERT_TRUE(db2.deserialize(blob));
  const auto found = db2.find(hkey);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, e);
}

TEST(TunerDb, RejectsSchemaV1Files) {
  // v1 files carry no topology field; the DB must ignore them wholesale (a
  // tuning DB is a cache — never a way to break a run).
  tuner::TuningDb db;
  std::string v1 = "ca3dmm-tuning-db schema 1 costmodel ";
  v1 += std::to_string(costmodel::kCostModelVersion);
  v1 += "\nentries 0\n";
  EXPECT_FALSE(db.deserialize(v1));
  EXPECT_EQ(db.size(), 0u);
}

}  // namespace
}  // namespace ca3dmm
