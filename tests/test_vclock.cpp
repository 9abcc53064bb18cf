// Virtual-time semantics: operations advance rank clocks by exactly the
// paper's §III-D butterfly collective costs; exit time of a collective is
// max(entry clocks) + cost; overlap charging; determinism; memory tracking.
// ClockRules.* call the shared rules of clock_rules.hpp directly.
#include <gtest/gtest.h>

#include <vector>

#include "simmpi/clock_rules.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm::simmpi {
namespace {

constexpr double kAlpha = 1e-6;   // Machine::unit_test latency
constexpr double kBeta = 1e-9;    // 1 / unit_test bandwidth (per byte)
constexpr double kTol = 1e-15;

TEST(VClock, P2PCost) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    // Each rank's exit is its receive's (or its send's consumption): one
    // message of 8 bytes, alpha + 8 beta, on both.
    const double x = 1.0;
    double y = 0;
    c.sendrecv(&x, 1, 1 - c.rank(), &y, 1, 1 - c.rank(), 0);
    EXPECT_NEAR(c.now(), kAlpha + kBeta * 8.0, kTol);
  });
  EXPECT_NEAR(cl.stats(0).vtime, kAlpha + kBeta * 8.0, kTol);
  EXPECT_NEAR(cl.stats(1).vtime, kAlpha + kBeta * 8.0, kTol);
}

TEST(VClock, AllgatherMatchesFormula) {
  const int P = 4;
  const i64 each = 100;  // doubles per rank
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<double> mine(static_cast<size_t>(each), 1.0);
    std::vector<double> all(static_cast<size_t>(each * P));
    c.allgather(mine.data(), each, all.data());
  });
  const double n_bytes = static_cast<double>(each * P * 8);
  const double expect =
      kAlpha * 2.0 /*log2(4)*/ + kBeta * n_bytes * (P - 1) / P;
  for (int r = 0; r < P; ++r) EXPECT_NEAR(cl.stats(r).vtime, expect, kTol);
}

TEST(VClock, ReduceScatterMatchesFormula) {
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<i64> counts(static_cast<size_t>(P), 50);
    std::vector<double> s(static_cast<size_t>(50 * P), 1.0);
    std::vector<double> r(50);
    c.reduce_scatter(s.data(), r.data(), counts);
  });
  const double n_bytes = 50.0 * P * 8;
  const double expect = kAlpha * (P - 1) + kBeta * n_bytes * (P - 1) / P;
  EXPECT_NEAR(cl.stats(0).vtime, expect, kTol);
}

TEST(VClock, BroadcastMatchesFormula) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<double> b(10, 0.0);
    c.bcast(b.data(), 10, 0);
  });
  const double n_bytes = 80.0;
  const double expect =
      kAlpha * (2.0 + P - 1) + 2.0 * kBeta * n_bytes * (P - 1) / P;
  EXPECT_NEAR(cl.stats(2).vtime, expect, kTol);
}

TEST(VClock, CollectiveExitIsMaxEntryPlusCost) {
  // Rank 1 computes 3 ms of work first; the barrier releases everyone at
  // rank 1's entry time + barrier cost.
  const int P = 3;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    if (c.rank() == 1) c.charge_compute(3e6, 0);  // 3e6 flops @1e9 = 3 ms
    c.barrier();
    EXPECT_NEAR(c.now(), 3e-3 + kAlpha * 2.0 /*log2(3)->2*/, 1e-12);
  });
}

TEST(VClock, ComputeChargesMachineRate) {
  Cluster cl(1, Machine::unit_test());
  cl.run([](Comm& c) {
    c.charge_compute(5e8, 0);
    EXPECT_NEAR(c.now(), 0.5, kTol);
  });
  EXPECT_NEAR(cl.stats(0).flops, 5e8, 1.0);
  EXPECT_NEAR(cl.stats(0).phase(Phase::kCompute), 0.5, kTol);
}

TEST(VClock, OverlappedComputeHidesBehindComm) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    double x = 0;
    const i64 n = 1000000;  // 8 MB -> comm cost ~8e-3 s
    std::vector<double> buf(static_cast<size_t>(n), 1.0);
    c.sendrecv(buf.data(), n, 1 - c.rank(), buf.data(), n, 1 - c.rank(), 0);
    const double t_after_comm = c.now();
    // 4e6 flops = 4 ms < 8 ms comm: fully hidden.
    c.charge_compute(4e6, 0, c.last_op_cost());
    EXPECT_NEAR(c.now(), t_after_comm, kTol);
    // 16e6 flops = 16 ms: only the excess over the last op cost advances.
    c.sendrecv(buf.data(), n, 1 - c.rank(), buf.data(), n, 1 - c.rank(), 0);
    const double t2 = c.now();
    c.charge_compute(16e6, 0, c.last_op_cost());
    EXPECT_NEAR(c.now(), t2 + (16e-3 - c.last_op_cost()), 1e-9);
    (void)x;
  });
}

TEST(VClock, DeterministicAcrossRuns) {
  const int P = 6;
  auto workload = [](Comm& c) {
    std::vector<double> v(64, static_cast<double>(c.rank()));
    std::vector<double> all(64 * 6);
    c.charge_compute(1e6 * (c.rank() + 1), 0);
    c.allgather(v.data(), 64, all.data());
    Comm g = c.split(c.rank() % 2, c.rank());
    double s = c.rank(), r = 0;
    g.allreduce(&s, &r, 1);
    c.barrier();
  };
  double t1 = 0, t2 = 0;
  {
    Cluster cl(P, Machine::unit_test());
    cl.run(workload);
    t1 = cl.aggregate_stats().vtime;
  }
  {
    Cluster cl(P, Machine::unit_test());
    cl.run(workload);
    t2 = cl.aggregate_stats().vtime;
  }
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_GT(t1, 0.0);
}

TEST(VClock, PhaseAccounting) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    c.set_phase(Phase::kReduce);
    double s = 1, r = 0;
    c.allreduce(&s, &r, 1);
    c.set_phase(Phase::kMisc);
    c.barrier();
  });
  EXPECT_GT(cl.stats(0).phase(Phase::kReduce), 0.0);
  EXPECT_GT(cl.stats(0).phase(Phase::kMisc), 0.0);
  EXPECT_DOUBLE_EQ(cl.stats(0).phase(Phase::kCompute), 0.0);
}

TEST(VClock, ChromeTraceExport) {
  Cluster cl(3, Machine::unit_test());
  cl.set_trace(true);
  cl.run([](Comm& c) {
    c.set_phase(Phase::kCompute);
    c.charge_compute(2e6, 0);
    c.set_phase(Phase::kReduce);
    double s = 1, r = 0;
    c.allreduce(&s, &r, 1);
  });
  const std::string path = ::testing::TempDir() + "ca3dmm_trace.json";
  cl.write_chrome_trace(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  const size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(n);
  EXPECT_NE(content.find("local compute"), std::string::npos);
  EXPECT_NE(content.find("reduce C"), std::string::npos);
  EXPECT_NE(content.find("\"tid\":2"), std::string::npos);
  EXPECT_EQ(content.front(), '[');
}

TEST(VClock, TraceDisabledByDefaultThrowsOnExport) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) { c.barrier(); });
  EXPECT_THROW(cl.write_chrome_trace("/tmp/nope.json"), Error);
}

TEST(VClock, GroupProfileComposition) {
  Machine m = Machine::phoenix_mpi();  // 24 ranks per node
  std::vector<int> ranks;
  for (int r = 0; r < 48; ++r) ranks.push_back(r);
  GroupProfile g = GroupProfile::from_world_ranks(m, ranks);
  EXPECT_EQ(g.size, 48);
  EXPECT_EQ(g.nodes, 2);
  EXPECT_EQ(g.max_ranks_per_node, 24);
  EXPECT_FALSE(g.single_node);

  GroupProfile one = GroupProfile::from_world_ranks(m, {0, 5, 23});
  EXPECT_TRUE(one.single_node);

  // Strided group: ranks 0, 24, 48 land on three distinct nodes.
  GroupProfile strided = GroupProfile::from_world_ranks(m, {0, 24, 48});
  EXPECT_EQ(strided.nodes, 3);
  EXPECT_EQ(strided.max_ranks_per_node, 1);
}

TEST(VClock, HybridVsPureLinkParameters) {
  // One rank per node (hybrid) reaches only a fraction of NIC bandwidth;
  // 24 ranks per node share it. These per-rank betas drive Fig. 4.
  Machine pure = Machine::phoenix_mpi();
  Machine hyb = Machine::phoenix_hybrid();
  EXPECT_NEAR(pure.inter_rank_bandwidth(), pure.nic_bandwidth / 24, 1.0);
  EXPECT_NEAR(hyb.inter_rank_bandwidth(),
              hyb.nic_bandwidth * hyb.single_rank_nic_fraction, 1.0);
  EXPECT_GT(hyb.inter_rank_bandwidth(), pure.inter_rank_bandwidth());
  EXPECT_GT(hyb.rank_flops(), pure.rank_flops());
}

TEST(VClock, ReduceScatterLargeMessagePenalty) {
  Machine m = Machine::phoenix_gpu();
  LinkParams l{1e-6, 1e-10};
  const int p = 4;
  const double small = t_reduce_scatter_machine(m, l, 1e6, p);
  EXPECT_DOUBLE_EQ(small, t_reduce_scatter(l, 1e6, p));
  const double big_bytes = (m.rs_penalty_threshold_bytes * p) * 2.0;
  const double big = t_reduce_scatter_machine(m, l, big_bytes, p);
  EXPECT_DOUBLE_EQ(big, t_reduce_scatter(l, big_bytes, p) * m.rs_penalty_factor);
}

TEST(ClockRules, GpuIgnoresTheOverlapBudget) {
  const Machine gpu = Machine::phoenix_gpu();
  const double t = gpu.gemm_time(1e9, 1e6);
  RankClock c;
  EXPECT_EQ(c.charge_compute(gpu, 1e9, 1e6, /*budget=*/10 * t, 1.0), t);
  EXPECT_EQ(c.clock, t);
  EXPECT_EQ(c.stats.phase(Phase::kCompute), t);
}

TEST(ClockRules, CpuHidesOnlyTheEfficientShareOfTheBudget) {
  Machine m = Machine::unit_test();
  m.overlap_efficiency = 0.5;
  RankClock c;
  c.clock = 1.0;
  // A 4 ms GEMM behind 6 ms of communication: 3 ms hide, 1 ms remains.
  EXPECT_NEAR(c.charge_compute(m, 4e6, 0, 6e-3, 1.0), 1e-3, kTol);
  EXPECT_NEAR(c.clock, 1.0 + 1e-3, kTol);
  // A 2 ms GEMM hides entirely; the clock does not move backwards.
  EXPECT_EQ(c.charge_compute(m, 2e6, 0, 6e-3, 1.0), 0.0);
  EXPECT_NEAR(c.clock, 1.0 + 1e-3, kTol);
  // The compute phase is still charged both GEMMs in full.
  EXPECT_NEAR(c.stats.phase(Phase::kCompute), 6e-3, kTol);
  EXPECT_EQ(c.stats.flops, 6e6);
}

TEST(ClockRules, SlowdownScalesP2pAndLocalWork) {
  const Machine m = Machine::unit_test();
  const Topology topo = Topology::homogeneous(2, m);
  const double t = p2p_time(topo, 0, 1, 8e3, 1.0);
  EXPECT_NEAR(t, kAlpha + kBeta * 8e3, kTol);
  EXPECT_EQ(p2p_time(topo, 0, 1, 8e3, 3.0), 3.0 * t);
  EXPECT_EQ(p2p_exit(topo, 0, 1, 8e3, 0.0, 0.0, 3.0), 3.0 * t);
  EXPECT_NEAR(local_work_time(m, 1e6, 1.0), 1e-3, kTol);  // 1 GB/s per rank
  EXPECT_EQ(local_work_time(m, 1e6, 2.5), 2.5 * local_work_time(m, 1e6, 1.0));
}

TEST(ClockRules, P2pExitTakesTheLaterEntry) {
  const Topology topo = Topology::homogeneous(2, Machine::unit_test());
  const double t = p2p_time(topo, 0, 1, 800, 1.0);
  EXPECT_EQ(p2p_exit(topo, 0, 1, 800, 2.0, 5.0, 1.0), 5.0 + t);  // sender
  EXPECT_EQ(p2p_exit(topo, 0, 1, 800, 5.0, 2.0, 1.0), 5.0 + t);  // receiver
  // A receiver that already waited past the exit is not moved back.
  RankClock c;
  c.clock = 9.0;
  EXPECT_EQ(c.advance_to(Phase::kShift, 5.0 + t), 0.0);
  EXPECT_EQ(c.clock, 9.0);
}

}  // namespace
}  // namespace ca3dmm::simmpi
