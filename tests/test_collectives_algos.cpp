// The topology-aware collective engine: every schedule (ring, recursive
// doubling, hierarchical, auto) must deliver byte-identical buffers to the
// paper-butterfly baseline — schedules change modeled cost and inter-node
// byte accounting, never data. Also covers
// algorithm resolution, per-communicator configuration and split
// inheritance, hierarchical inter-byte monotonicity, and cooperative abort
// under fault injection with tuned schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace ca3dmm::simmpi {
namespace {

struct RunResult {
  std::vector<std::vector<double>> bufs;  ///< per rank: all received data
  std::vector<double> vtimes;
  double inter_bytes = 0;  ///< aggregate inter-node bytes
};

/// Runs a mixed collective workload (bcast, allgather, uneven allgatherv,
/// uneven reduce-scatter with a zero count, non-divisible allreduce) and
/// captures every byte each rank received.
RunResult run_workload(const Machine& mach, int P,
                       const CollectiveConfig& cfg) {
  Cluster cl(P, mach);
  cl.set_collective_config(cfg);
  RunResult res;
  res.bufs.assign(static_cast<size_t>(P), {});
  res.vtimes.assign(static_cast<size_t>(P), 0.0);
  cl.run([&](Comm& c) {
    const int me = c.rank();
    std::vector<double>& out = res.bufs[static_cast<size_t>(me)];

    std::vector<double> b(7, 0.0);
    if (me == 1)
      for (int i = 0; i < 7; ++i) b[static_cast<size_t>(i)] = 3.5 * i - 1.0;
    c.bcast(b.data(), 7, 1);
    out.insert(out.end(), b.begin(), b.end());

    std::vector<double> mine{1.25 * me, me * me + 0.5,
                             static_cast<double>(-me)};
    std::vector<double> all(static_cast<size_t>(3 * P));
    c.allgather(mine.data(), 3, all.data());
    out.insert(out.end(), all.begin(), all.end());

    // Uneven allgatherv: rank r contributes (r % 3) + 1 doubles.
    const int nmine = me % 3 + 1;
    std::vector<double> vals(static_cast<size_t>(nmine));
    for (int i = 0; i < nmine; ++i)
      vals[static_cast<size_t>(i)] = 100.0 * me + i + 0.25;
    std::vector<i64> counts(static_cast<size_t>(P));
    i64 total = 0;
    for (int r = 0; r < P; ++r) {
      counts[static_cast<size_t>(r)] =
          static_cast<i64>((r % 3 + 1) * sizeof(double));
      total += r % 3 + 1;
    }
    std::vector<double> gat(static_cast<size_t>(total));
    c.allgatherv_bytes(vals.data(),
                       static_cast<i64>(nmine * sizeof(double)), gat.data(),
                       counts);
    out.insert(out.end(), gat.begin(), gat.end());

    // Reduce-scatter with uneven counts including zeros. Values are
    // irrational-ish so any reordering of the summation would show.
    std::vector<i64> rs(static_cast<size_t>(P));
    i64 rtot = 0;
    for (int r = 0; r < P; ++r) {
      rs[static_cast<size_t>(r)] = r % 4;
      rtot += r % 4;
    }
    std::vector<double> sb(static_cast<size_t>(rtot));
    for (i64 i = 0; i < rtot; ++i)
      sb[static_cast<size_t>(i)] = std::sin(0.1 * (me + 1) * (i + 1));
    std::vector<double> rb(
        static_cast<size_t>(std::max<i64>(rs[static_cast<size_t>(me)], 1)),
        -1.0);
    c.reduce_scatter(sb.data(), rb.data(), rs);
    out.insert(out.end(), rb.begin(),
               rb.begin() + rs[static_cast<size_t>(me)]);

    // Allreduce with a count not divisible by P (uneven element shards).
    const i64 ac = 2 * P + 3;
    std::vector<double> as(static_cast<size_t>(ac)),
        ar(static_cast<size_t>(ac));
    for (i64 i = 0; i < ac; ++i)
      as[static_cast<size_t>(i)] = std::cos(0.05 * (me + 2) * (i + 1));
    c.allreduce(as.data(), ar.data(), ac);
    out.insert(out.end(), ar.begin(), ar.end());
  });
  for (int r = 0; r < P; ++r)
    res.vtimes[static_cast<size_t>(r)] = cl.stats(r).vtime;
  res.inter_bytes = cl.aggregate_stats().total_inter_bytes();
  return res;
}

CollectiveConfig uniform(CollAlgo a) {
  CollectiveConfig cfg;
  cfg.allgather = cfg.reduce_scatter = cfg.bcast = cfg.allreduce = a;
  return cfg;
}

TEST(CollectivesAlgos, SchedulesAreByteIdentical) {
  struct Case {
    Machine mach;
    int P;
    const char* name;
  };
  // unit_test: one rank per node (hierarchy never applies); phoenix_mpi
  // with 30 ranks: two nodes of 24 + 6 (hierarchy applies). Both sizes are
  // non-powers-of-two.
  const Case cases[] = {{Machine::unit_test(), 10, "unit_test"},
                        {Machine::phoenix_mpi(), 30, "phoenix_mpi"}};
  for (const Case& cs : cases) {
    const RunResult ref = run_workload(cs.mach, cs.P, CollectiveConfig{});
    for (CollAlgo a : {CollAlgo::kRing, CollAlgo::kRecursive,
                       CollAlgo::kHierarchical, CollAlgo::kAuto}) {
      const RunResult got = run_workload(cs.mach, cs.P, uniform(a));
      EXPECT_EQ(got.bufs, ref.bufs)
          << cs.name << " algo=" << coll_algo_name(a);
    }
  }
}

TEST(CollectivesAlgos, DefaultConfigMatchesExplicitButterfly) {
  // A default-constructed config and an explicitly butterfly-configured
  // one must agree exactly (the seed-compatibility guarantee).
  const RunResult def =
      run_workload(Machine::phoenix_mpi(), 12, CollectiveConfig{});
  const RunResult explicit_bf =
      run_workload(Machine::phoenix_mpi(), 12,
                   uniform(CollAlgo::kPaperButterfly));
  EXPECT_EQ(def.vtimes, explicit_bf.vtimes);
  EXPECT_EQ(def.bufs, explicit_bf.bufs);
}

TEST(CollectivesAlgos, ResolveAlgoSelection) {
  GroupProfile single;
  single.size = 8;
  single.nodes = 1;
  single.max_ranks_per_node = 8;
  single.single_node = true;
  GroupProfile multi;
  multi.size = 48;
  multi.nodes = 2;
  multi.max_ranks_per_node = 24;
  multi.single_node = false;
  GroupProfile spread;  // one rank per node: no two-level structure
  spread.size = 8;
  spread.nodes = 8;
  spread.max_ranks_per_node = 1;
  spread.single_node = false;

  const i64 small = 16 * 1024;
  // kAuto: latency-bound small messages -> recursive; large -> butterfly;
  // multi-node with >1 rank/node -> hierarchical at any size.
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kAuto, single, 1024.0, small),
            CollAlgo::kRecursive);
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kAuto, single, 1 << 20, small),
            CollAlgo::kPaperButterfly);
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kAuto, multi, 1024.0, small),
            CollAlgo::kHierarchical);
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kAuto, spread, 1024.0, small),
            CollAlgo::kRecursive);
  // Explicit hierarchical downgrades when the group has no hierarchy.
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kHierarchical, single, 1 << 20, small),
            CollAlgo::kPaperButterfly);
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kHierarchical, spread, 1 << 20, small),
            CollAlgo::kPaperButterfly);
  // Explicit flat algorithms are honored as-is.
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kRing, multi, 1024.0, small),
            CollAlgo::kRing);
  EXPECT_EQ(resolve_coll_algo(CollAlgo::kPaperButterfly, multi, 1.0, small),
            CollAlgo::kPaperButterfly);
}

TEST(CollectivesAlgos, HierarchicalCostReducesInterBytes) {
  // Two full nodes: flat butterfly puts n * (p - r) = n * 24 bytes on the
  // network, the two-level schedule n * (N - 1) = n. Applies to both the
  // allgather and the reduce-scatter formulas.
  const Machine m = Machine::phoenix_mpi();
  GroupProfile g;
  g.size = 48;
  g.nodes = 2;
  g.max_ranks_per_node = 24;
  g.single_node = false;
  const LinkParams l = group_link(m, g);
  const double bytes = 1 << 20;
  const CollCost fa =
      coll_allgather_cost(m, g, l, CollAlgo::kPaperButterfly, bytes, g.size);
  const CollCost ha =
      coll_allgather_cost(m, g, l, CollAlgo::kHierarchical, bytes, g.size);
  EXPECT_GT(fa.inter_bytes, 0.0);
  EXPECT_LT(ha.inter_bytes, fa.inter_bytes);
  const CollCost fr = coll_reduce_scatter_cost(
      m, g, l, CollAlgo::kPaperButterfly, bytes, g.size, false);
  const CollCost hr = coll_reduce_scatter_cost(
      m, g, l, CollAlgo::kHierarchical, bytes, g.size, false);
  EXPECT_GT(fr.inter_bytes, 0.0);
  EXPECT_LT(hr.inter_bytes, fr.inter_bytes);
}

TEST(CollectivesAlgos, HierarchicalReducesEngineInterBytes) {
  // End-to-end on the engine: the aggregate RankStats inter-node bytes of a
  // two-node allgather + reduce-scatter drop strictly under the
  // hierarchical schedule.
  const int P = 48;  // two full phoenix_mpi nodes
  auto run_with = [&](CollAlgo a) {
    Cluster cl(P, Machine::phoenix_mpi());
    cl.set_collective_config(uniform(a));
    cl.run([&](Comm& c) {
      std::vector<double> mine(256, 1.0 + c.rank());
      std::vector<double> all(static_cast<size_t>(256 * P));
      c.allgather(mine.data(), 256, all.data());
      std::vector<i64> counts(static_cast<size_t>(P), 256);
      std::vector<double> s(static_cast<size_t>(256 * P), 0.5), r(256);
      c.reduce_scatter(s.data(), r.data(), counts);
    });
    return cl.aggregate_stats().total_inter_bytes();
  };
  const double flat = run_with(CollAlgo::kPaperButterfly);
  const double hier = run_with(CollAlgo::kHierarchical);
  EXPECT_GT(flat, 0.0);
  EXPECT_LT(hier, flat);
}

TEST(CollectivesAlgos, PerCommConfigOverridesAndSplitInherits) {
  Cluster cl(8, Machine::unit_test());
  cl.run([](Comm& c) {
    const CollectiveConfig cfg = CollectiveConfig::tuned();
    c.set_collective_config(cfg);
    EXPECT_TRUE(c.collective_config() == cfg);
    Comm sub = c.split(c.rank() % 2, c.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_TRUE(sub.collective_config() == cfg);  // inherited by children
    double v = 1.0, s = 0.0;
    sub.allreduce(&v, &s, 1);
    EXPECT_DOUBLE_EQ(s, 4.0);
  });
}

TEST(CollectivesAlgos, FaultInjectionUnwindsUnderTunedSchedules) {
  // A rank killed mid-workload must unwind the whole cluster with a
  // rank-attributed error under the tuned schedules.
  Cluster cl(30, Machine::phoenix_mpi());
  cl.set_collective_config(CollectiveConfig::tuned());
  FaultPlan fp;
  fp.kills.push_back({7, 2});
  cl.set_fault_plan(fp);
  std::string msg;
  try {
    cl.run([](Comm& c) {
      std::vector<double> mine(64, 1.0 * c.rank());
      std::vector<double> all(static_cast<size_t>(64 * c.size()));
      c.allgather(mine.data(), 64, all.data());
      double v = 1.0, s = 0.0;
      c.allreduce(&v, &s, 1);
      c.barrier();
    });
    ADD_FAILURE() << "run() completed despite the injected kill";
  } catch (const Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("rank 7"), std::string::npos) << msg;
}

}  // namespace
}  // namespace ca3dmm::simmpi
