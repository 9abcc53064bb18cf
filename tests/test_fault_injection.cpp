// Failure semantics of the simulated cluster: cooperative abort (a failing
// rank unwinds every peer in bounded time, with a rank-attributed error),
// deterministic fault injection (rank kills, node stragglers, payload
// flips), the collective-consistency checker, and exact deadlock detection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cosma_like.hpp"
#include "baselines/ctf_like.hpp"
#include "baselines/p25d.hpp"
#include "baselines/summa.hpp"
#include "core/ca3dmm.hpp"
#include "engine/engine.hpp"
#include "linalg/matrix.hpp"
#include "resilience/recovery.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace ca3dmm::simmpi {
namespace {

/// Runs rank_main and returns the Error message the run raised.
std::string run_expect_error(Cluster& cl,
                             const std::function<void(Comm&)>& rank_main) {
  try {
    cl.run(rank_main);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "run() completed without raising an Error";
  return "";
}

TEST(CooperativeAbort, ThrowMidCollectiveUnwindsWholeCluster) {
  // Rank 3 fails before entering the barrier every other rank is blocked
  // in. Without cooperative abort this deadlocks run(); with it, every peer
  // unwinds and the error names the failing rank.
  Cluster cl(8, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    if (c.rank() == 3) throw Error("boom from rank 3");
    c.barrier();
  });
  EXPECT_NE(msg.find("rank 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("boom from rank 3"), std::string::npos) << msg;
}

TEST(CooperativeAbort, ThrowMidP2pUnwindsBlockedReceiver) {
  // Rank 0 blocks in a sendrecv whose peer dies first.
  Cluster cl(2, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    if (c.rank() == 1) throw Error("sender died");
    const double v = 1;
    double x = 0;
    c.sendrecv(&v, 1, 1, &x, 1, 1, 0);
  });
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
}

TEST(CooperativeAbort, AllFailedRanksAreReported) {
  // Two ranks fail independently; the aggregated error must name both, and
  // the surviving ranks' stats must still be finalized.
  Cluster cl(6, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    c.charge_compute(1e6, 0);
    if (c.rank() == 1) throw Error("first failure");
    if (c.rank() == 4) throw Error("second failure");
    c.barrier();
  });
  EXPECT_NE(msg.find("2 ranks failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1 failed: first failure"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 4 failed: second failure"), std::string::npos)
      << msg;
  // Satellite: stats are finalized for every rank even on a failed run.
  for (int r = 0; r < 6; ++r)
    EXPECT_GT(cl.stats(r).vtime, 0.0) << "rank " << r;
}

TEST(CooperativeAbort, SendrecvRingUnwinds) {
  // One rank of a shift ring dies; everyone else is inside sendrecv.
  const int P = 6;
  Cluster cl(P, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [&](Comm& c) {
    const int me = c.rank();
    if (me == 2) throw Error("ring rank down");
    double v = me, got = -1;
    for (int step = 0; step < P; ++step)
      c.sendrecv(&v, 1, (me + P - 1) % P, &got, 1, (me + 1) % P, 0);
  });
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
}

TEST(FaultInjection, KillRankAtNthOpIsCaught) {
  Cluster cl(4, Machine::unit_test());
  FaultPlan fp;
  fp.kills.push_back({.rank = 2, .at_op = 3});
  cl.set_fault_plan(fp);
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    for (int i = 0; i < 10; ++i) c.barrier();
  });
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fault injection"), std::string::npos) << msg;
  EXPECT_NE(msg.find("comm op 3"), std::string::npos) << msg;

  // The plan is cleared by attaching an empty one.
  cl.set_fault_plan(FaultPlan{});
  cl.run([](Comm& c) { c.barrier(); });
}

TEST(FaultInjection, StragglerShiftsAggregateVtimeByModeledAmount) {
  // unit_test machine: 1 rank/node, 1e9 flop/s, zero GEMM overhead. Each
  // rank runs one local GEMM then a barrier, so the aggregate virtual time
  // is gemm_time + t_barrier. Straggling rank 1's node by 3x must shift the
  // aggregate by exactly (3-1) * gemm_time.
  const double flops = 1e6;
  const double t_gemm = flops / 1e9;
  Machine m = Machine::unit_test();
  auto body = [&](Comm& c) {
    c.charge_compute(flops, 0);
    c.barrier();
  };
  Cluster cl(2, m);
  cl.run(body);
  const double base = cl.aggregate_stats().vtime;

  FaultPlan fp;
  fp.stragglers.push_back({.node = 1, .factor = 3.0});
  cl.set_fault_plan(fp);
  cl.run(body);
  const double straggled = cl.aggregate_stats().vtime;
  EXPECT_NEAR(straggled - base, 2.0 * t_gemm, 1e-12);
  // The non-straggled rank pays the wait inside the barrier: both exit at
  // the same virtual time.
  EXPECT_DOUBLE_EQ(cl.stats(0).vtime, cl.stats(1).vtime);
}

TEST(FaultInjection, StragglerPolicyDegradesNodesOfTwoSiblingCommsAtOnce) {
  // unit_test machine: 1 rank/node. Nodes 1 and 6 run 50x slow; the world
  // splits into sibling communicators {0..3} and {4..7}, and each runs one
  // GEMM and a barrier. Both barriers reclassify their straggler at about
  // the same moment on four workers, each under its own communicator's
  // lock. Every member catches its communicator's error, so neither
  // failure aborts the other rendezvous: the degraded-node list must hold
  // both nodes, and each member must see its own communicator's node.
  Cluster cl(8, Machine::unit_test());
  cl.set_fiber_workers(4);
  FaultPlan fp;
  fp.stragglers.push_back({.node = 1, .factor = 50.0});
  fp.stragglers.push_back({.node = 6, .factor = 50.0});
  cl.set_fault_plan(fp);
  StragglerPolicy sp;
  sp.enabled = true;
  sp.degrade_factor = 5.0;
  sp.min_lag_s = 1e-6;
  cl.set_straggler_policy(sp);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<std::string> errs(8);
    cl.run([&](Comm& c) {
      Comm half = c.split(c.rank() / 4, c.rank());
      c.charge_compute(1e6, 0);
      try {
        half.barrier();
      } catch (const Error& e) {
        errs[static_cast<size_t>(c.rank())] = e.what();
      }
    });
    EXPECT_EQ(cl.degraded_nodes(), (std::vector<int>{1, 6}));
    for (int r = 0; r < 8; ++r)
      EXPECT_NE(errs[static_cast<size_t>(r)].find(strprintf(
                    "node %d reclassified as degraded", r < 4 ? 1 : 6)),
                std::string::npos)
          << "rank " << r << ": " << errs[static_cast<size_t>(r)];
  }
}

TEST(FaultInjection, PayloadFlipIsCaughtByReceiverValidation) {
  Cluster cl(2, Machine::unit_test());
  FaultPlan fp;
  fp.flips.push_back(
      {.src = 0, .dst = 1, .tag = 5, .nth_match = 1, .offset = 9, .mask = 0xFF});
  cl.set_fault_plan(fp);
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    const std::vector<double> send(4, 1.25);
    std::vector<double> buf(4);
    c.sendrecv(send.data(), 4, 1 - c.rank(), buf.data(), 4, 1 - c.rank(), 5);
    for (double v : buf)
      if (v != 1.25) throw Error("corrupted payload detected");
  });
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("corrupted payload"), std::string::npos) << msg;
}

TEST(ConsistencyChecker, MismatchedCollectiveOpIsReported) {
  Cluster cl(2, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    if (c.rank() == 0) {
      double x = 0;
      c.bcast(&x, 1, 0);
    } else {
      c.barrier();
    }
  });
  EXPECT_NE(msg.find("mismatched collective"), std::string::npos) << msg;
}

TEST(ConsistencyChecker, BcastRootMismatchRaisesBeforeCorruption) {
  Cluster cl(4, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    double x = c.rank();
    c.bcast(&x, 1, c.rank() == 0 ? 0 : 1);  // inconsistent root
  });
  EXPECT_NE(msg.find("bcast root mismatch"), std::string::npos) << msg;
}

TEST(ConsistencyChecker, AllgathervCountsMismatchRaisesOnEveryRank) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [&](Comm& c) {
    // Rank 2 disagrees about rank 0's contribution.
    std::vector<i64> counts{8, 8, 8, 8};
    if (c.rank() == 2) counts[0] = 16;
    counts[static_cast<size_t>(c.rank())] = 8;
    double mine = c.rank();
    std::vector<double> all(static_cast<size_t>(P + 1));
    c.allgatherv_bytes(&mine, 8, all.data(), counts);
  });
  // The rendezvous fails collectively: every member raises the same error.
  EXPECT_NE(msg.find("4 ranks failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allgatherv counts mismatch"), std::string::npos) << msg;
}

TEST(ConsistencyChecker, AllreduceDtypeMismatchDetected) {
  Cluster cl(2, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    double s = 1, r = 0;
    c.allreduce_sum(&s, &r, 1,
                    c.rank() == 0 ? Dtype::kF64 : Dtype::kF32);
  });
  EXPECT_NE(msg.find("dtype mismatch"), std::string::npos) << msg;
}

/// Runs one collective on every rank of a P-rank cluster: `call` posts it
/// with a receive buffer of `rbuf_bytes` bytes, each 0x5A. Returns each
/// rank's error ("" = none) and checks that a failed call left the receive
/// buffer untouched.
std::vector<std::string> collective_errors(
    int P, size_t rbuf_bytes,
    const std::function<void(Comm&, char* rbuf)>& call) {
  Cluster cl(P, Machine::unit_test());
  std::vector<std::string> errors(static_cast<size_t>(P));
  cl.run([&](Comm& c) {
    std::vector<char> rbuf(rbuf_bytes, 0x5A);
    try {
      call(c, rbuf.data());
    } catch (const Error& e) {
      errors[static_cast<size_t>(c.rank())] = e.what();
      for (char b : rbuf) EXPECT_EQ(b, 0x5A);
    }
  });
  return errors;
}

void expect_same_error_everywhere(const std::vector<std::string>& errors,
                                  const std::string& want) {
  for (const std::string& e : errors) {
    EXPECT_EQ(e, errors[0]);
    EXPECT_NE(e.find(want), std::string::npos) << e;
  }
}

TEST(ConsistencyChecker, ReduceScatterDtypeMismatchRaisesOnEveryRank) {
  // Rank 1 posts F32 and sizes its buffer for F32; the others post F64.
  const std::vector<i64> counts{2, 2, 2, 2};
  expect_same_error_everywhere(
      collective_errors(4, 16, [&](Comm& c, char* rbuf) {
        const Dtype dt = c.rank() == 1 ? Dtype::kF32 : Dtype::kF64;
        const std::vector<char> sbuf(static_cast<size_t>(8 * dtype_size(dt)));
        c.reduce_scatter_sum(sbuf.data(), rbuf, counts, dt);
      }),
      "reduce_scatter dtype mismatch between rank 0 and rank 1");
}

TEST(ConsistencyChecker, AllgathervNegativeCountRaisesOnEveryRank) {
  // Equal vectors on every rank, but rank 0 contributes -8 bytes: the
  // copy into any receive buffer would start rank 1's block 8 bytes before
  // the buffer.
  const std::vector<i64> counts{-8, 16, 8, 8};
  expect_same_error_everywhere(
      collective_errors(4, 24, [&](Comm& c, char* rbuf) {
        const i64 mine = counts[static_cast<size_t>(c.rank())];
        const std::vector<char> sbuf(16, static_cast<char>(c.rank()));
        c.allgatherv_bytes(sbuf.data(), mine, rbuf, counts);
      }),
      "allgatherv: counts[0]=-8 is negative");
}

TEST(ConsistencyChecker, ReduceScatterNegativeCountRaisesOnEveryRank) {
  // Rank 1's segment would start one element before the send buffers.
  const std::vector<i64> counts{-1, 2, 1, 1};
  expect_same_error_everywhere(
      collective_errors(4, 16, [&](Comm& c, char* rbuf) {
        const std::vector<double> sbuf(3, 1.0);
        c.reduce_scatter_sum(sbuf.data(), rbuf, counts, Dtype::kF64);
      }),
      "reduce_scatter: counts[0]=-1 is negative");
}

TEST(P2PValidation, RecvSizeMismatchIsAnErrorNotAnAbort) {
  // Satellite: a posted-size mismatch is a user error that must flow
  // through the cooperative-abort path, not kill the process.
  Cluster cl(2, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    double x[2] = {1, 2}, y[2] = {0, 0};
    // Both send one double; rank 1 posts two.
    c.sendrecv(x, 1, 1 - c.rank(), y, c.rank() == 1 ? 2 : 1, 1 - c.rank(), 0);
  });
  EXPECT_NE(msg.find("recv size mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
}

TEST(Watchdog, TagMismatchBecomesWaitForTable) {
  // Rank 1 exchanges with rank 0 on tag 7, rank 0 with rank 1 on tag 999,
  // and rank 2 finishes: both exchanges wait forever. The scheduler going
  // idle must turn the hang into a diagnostic naming the stuck ops.
  Cluster cl(3, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    if (c.rank() == 2) return;
    const double v = 1;
    double x = 0;
    c.sendrecv(&v, 1, 1 - c.rank(), &x, 1, 1 - c.rank(),
               c.rank() == 0 ? 999 : 7);
  });
  EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wait-for table"), std::string::npos) << msg;
  EXPECT_NE(msg.find("blocked in recv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tag=999"), std::string::npos) << msg;
  EXPECT_NE(msg.find("finished"), std::string::npos) << msg;
}

TEST(Watchdog, SplitCollectiveDeadlockDetected) {
  // Two ranks each wait on a collective the other will never join: rank 0
  // runs a barrier on the world communicator while rank 1 runs a barrier on
  // a subgroup... constructed here as a world barrier only rank 0 enters.
  Cluster cl(2, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    if (c.rank() == 0) {
      c.barrier();
    } else {
      const double v = 1;
      double x = 0;
      c.sendrecv(&v, 1, 0, &x, 1, 0, 0);  // rank 0 never sends
    }
  });
  EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
  EXPECT_NE(msg.find("blocked in barrier"), std::string::npos) << msg;
}

TEST(Watchdog, DoesNotFireOnHealthyRuns) {
  // A run with plenty of blocking communication but steady progress must
  // never be reported as a deadlock.
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    for (int i = 0; i < 200; ++i) {
      const int me = c.rank();
      double v = me, got = -1;
      c.sendrecv(&v, 1, (me + P - 1) % P, &got, 1, (me + 1) % P, 0);
      c.barrier();
    }
  });
}

TEST(Watchdog, OsBlockedRankIsNotADeadlock) {
  // Rank 0 blocks in the OS on a std::mutex a host thread holds for about
  // 100 ms while the other ranks park in a barrier. A fiber blocked in the
  // OS still counts as running, so the scheduler is never idle and the run
  // completes — on one worker (rank 0 holds it) and on four.
  for (const int workers : {1, 4}) {
    std::mutex host_mu;
    std::atomic<bool> held{false}, contended{false};
    std::thread holder([&] {
      std::lock_guard<std::mutex> lk(host_mu);
      held = true;
      while (!contended) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    while (!held) std::this_thread::yield();
    Cluster cl(4, Machine::unit_test());
    cl.set_fiber_workers(workers);
    cl.run([&](Comm& c) {
      if (c.rank() == 0) {
        EXPECT_FALSE(host_mu.try_lock());
        contended = true;
        std::lock_guard<std::mutex> lk(host_mu);
      }
      c.barrier();
    });
    holder.join();
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(cl.stats(r).vtime, cl.stats(0).vtime) << "workers " << workers;
  }
}

TEST(CoreValidation, BadPlanDimensionsRaiseError) {
  EXPECT_THROW(Ca3dmmPlan::make(0, 5, 5, 4), Error);
  EXPECT_THROW(Ca3dmmPlan::make(5, -1, 5, 4), Error);
  EXPECT_THROW(Ca3dmmPlan::make(5, 5, 5, 0), Error);
  Ca3dmmOptions opt;
  opt.min_kblk = -1;
  EXPECT_THROW(Ca3dmmPlan::make(5, 5, 5, 4, opt), Error);
}

/// One public executor, planning m x n x k on the communicator's ranks.
struct NamedExecutor {
  const char* name;
  void (*run)(Comm&, i64, i64, i64, const BlockLayout&, const double*,
              const BlockLayout&, const double*, const BlockLayout&, double*);
};

const NamedExecutor kExecutors[] = {
    {"ca3dmm",
     [](Comm& w, i64 m, i64 n, i64 k, const BlockLayout& la, const double* a,
        const BlockLayout& lb, const double* b, const BlockLayout& lc,
        double* c) {
       ca3dmm_multiply<double>(w, Ca3dmmPlan::make(m, n, k, w.size()), false,
                               false, la, a, lb, b, lc, c);
     }},
    {"cosma",
     [](Comm& w, i64 m, i64 n, i64 k, const BlockLayout& la, const double* a,
        const BlockLayout& lb, const double* b, const BlockLayout& lc,
        double* c) {
       run_plan<double>(w, CosmaPlan::make(m, n, k, w.size()), false, false, la,
                        a, lb, b, lc, c);
     }},
    {"carma",
     [](Comm& w, i64 m, i64 n, i64 k, const BlockLayout& la, const double* a,
        const BlockLayout& lb, const double* b, const BlockLayout& lc,
        double* c) {
       run_plan<double>(w, CosmaPlan::make_carma(m, n, k, w.size()), false,
                        false, la, a, lb, b, lc, c);
     }},
    {"ctf",
     [](Comm& w, i64 m, i64 n, i64 k, const BlockLayout& la, const double* a,
        const BlockLayout& lb, const double* b, const BlockLayout& lc,
        double* c) {
       run_plan<double>(w, CtfPlan::make(m, n, k, w.size()), false, false, la,
                        a, lb, b, lc, c);
     }},
    {"summa",
     [](Comm& w, i64 m, i64 n, i64 k, const BlockLayout& la, const double* a,
        const BlockLayout& lb, const double* b, const BlockLayout& lc,
        double* c) {
       run_plan<double>(w, SummaPlan::make(m, n, k, w.size()), false, false, la,
                        a, lb, b, lc, c);
     }},
    {"p25d",
     [](Comm& w, i64 m, i64 n, i64 k, const BlockLayout& la, const double* a,
        const BlockLayout& lb, const double* b, const BlockLayout& lc,
        double* c) {
       run_plan<double>(w, P25dPlan::make(m, n, k, w.size()), false, false, la,
                        a, lb, b, lc, c);
     }},
};

TEST(CoreValidation, LayoutMismatchRaisesCollectivelyNotHang) {
  // Every rank passes the same bad input to each executor: a C layout of
  // the wrong shape, or a null A buffer where the layout assigns elements.
  // Each rank raises the same Error before any communication, so the run
  // fails with all ranks attributed instead of hanging or crashing.
  const int P = 4;
  const i64 d = 8;
  const BlockLayout lay = BlockLayout::col_1d(d, d, P);
  const BlockLayout c_bad(d + 1, d, P);  // wrong shape on every rank
  for (const NamedExecutor& ex : kExecutors) {
    SCOPED_TRACE(ex.name);
    Cluster cl(P, Machine::unit_test());
    std::string msg = run_expect_error(cl, [&](Comm& world) {
      std::vector<double> buf(static_cast<size_t>((d + 1) * d), 0.0);
      ex.run(world, d, d, d, lay, buf.data(), lay, buf.data(), c_bad,
             buf.data());
    });
    EXPECT_NE(msg.find("4 ranks failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("C layout"), std::string::npos) << msg;

    msg = run_expect_error(cl, [&](Comm& world) {
      std::vector<double> buf(static_cast<size_t>(d * d), 0.0);
      ex.run(world, d, d, d, lay, nullptr, lay, buf.data(), lay, buf.data());
    });
    EXPECT_NE(msg.find("4 ranks failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("A local buffer is null"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Shrink-and-replan recovery and ABFT correction (src/resilience).
// ---------------------------------------------------------------------------

using resilience::RecoveryReport;
using resilience::ResilientRunner;
using resilience::RetryPolicy;

constexpr std::uint64_t kSeedA = 31, kSeedB = 32;

/// A rank_main computing C = A·B that derives the plan and every layout from
/// world.size() — the contract that makes shrink-and-replan automatic: after
/// the runner shrinks the world, the same body replans at the survivor
/// count. Each rank's C block lands in (*out)[world rank].
std::function<void(Comm&)> pgemm_main(i64 m, i64 n, i64 k,
                                      std::vector<std::vector<double>>* out,
                                      Ca3dmmOptions opt = {}) {
  return [=](Comm& world) {
    const int P = world.size();
    const int me = world.rank();
    const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P, opt);
    const BlockLayout a_nat = plan.a_native();
    const BlockLayout b_nat = plan.b_native();
    const BlockLayout c_nat = plan.c_native();
    std::vector<double> a, b;
    fill_local(a_nat, me, kSeedA, a);
    fill_local(b_nat, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(c_nat.local_size(me)));
    ca3dmm_multiply<double>(world, plan, false, false, a_nat, a.data(), b_nat,
                            b.data(), c_nat, c.data());
    (*out)[static_cast<size_t>(me)] = std::move(c);
  };
}

void expect_bitwise_equal(const std::vector<std::vector<double>>& got,
                          const std::vector<std::vector<double>>& want,
                          int nranks) {
  for (int r = 0; r < nranks; ++r) {
    const auto& g = got[static_cast<size_t>(r)];
    const auto& w = want[static_cast<size_t>(r)];
    ASSERT_EQ(g.size(), w.size()) << "rank " << r;
    for (size_t i = 0; i < g.size(); ++i)
      ASSERT_EQ(g[i], w[i]) << "rank " << r << " element " << i;
  }
}

TEST(Recovery, RankKillShrinksAndReplansToBitIdenticalResult) {
  const i64 m = 48, n = 48, k = 48;
  const int P = 5;

  // Reference: a clean run at the survivor count.
  std::vector<std::vector<double>> clean(P - 1);
  Cluster ref(P - 1, Machine::unit_test());
  ref.run(pgemm_main(m, n, k, &clean));

  ResilientRunner runner(P, Machine::unit_test(),
                         RetryPolicy{.max_attempts = 3, .backoff_s = 0.5});
  FaultPlan fp;
  fp.kills.push_back({.rank = 2, .at_op = 4});
  runner.set_fault_plan(fp);
  std::vector<std::vector<double>> out(P);
  const RecoveryReport rep = runner.run(pgemm_main(m, n, k, &out));

  EXPECT_TRUE(rep.ok);
  ASSERT_EQ(rep.attempts_used(), 2);
  EXPECT_FALSE(rep.attempts[0].ok);
  EXPECT_EQ(rep.attempts[0].nranks, P);
  EXPECT_EQ(rep.attempts[0].failed_world_ranks, (std::vector<int>{2}));
  EXPECT_NE(rep.attempts[0].error.find("fault injection"), std::string::npos)
      << rep.attempts[0].error;
  EXPECT_TRUE(rep.attempts[1].ok);
  EXPECT_EQ(rep.final_nranks, P - 1);
  EXPECT_EQ(rep.surviving_world_ranks, (std::vector<int>{0, 1, 3, 4}));

  // The recovered multiply is bit-identical to a clean run at the survivor
  // count: shrink-and-replan, not a degraded answer.
  expect_bitwise_equal(out, clean, P - 1);

  // Recovery latency accounting: both attempts plus the configured backoff,
  // all in deterministic virtual time.
  EXPECT_EQ(rep.backoff_s, 0.5);
  EXPECT_GT(rep.attempts[0].vtime, 0.0);
  EXPECT_GE(rep.total_vtime(),
            rep.backoff_s + rep.attempts[1].vtime);
}

TEST(Recovery, RetryBudgetExhaustionSurfacesRankAttributedError) {
  // Two staged kills: attempt 1 loses original rank 1 (the second kill
  // never fires — its rank is still blocked at an earlier barrier), the
  // shrunk attempt 2 loses original rank 2 via the remapped kill. With
  // max_attempts = 2 the budget is now exhausted and the original
  // rank-attributed error must surface.
  ResilientRunner runner(5, Machine::unit_test(),
                         RetryPolicy{.max_attempts = 2});
  FaultPlan fp;
  fp.kills.push_back({.rank = 1, .at_op = 2});
  fp.kills.push_back({.rank = 2, .at_op = 5});
  runner.set_fault_plan(fp);
  try {
    runner.run([](Comm& c) {
      for (int i = 0; i < 10; ++i) c.barrier();
    });
    FAIL() << "retry budget should have been exhausted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("retry budget exhausted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fault injection"), std::string::npos) << msg;
  }
  const RecoveryReport& rep = runner.report();
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.attempts_used(), 2);
  EXPECT_EQ(rep.attempts[0].nranks, 5);
  EXPECT_EQ(rep.attempts[0].failed_world_ranks, (std::vector<int>{1}));
  // The remapped kill fired on shrunk rank 1 — reported in ORIGINAL world
  // numbering as rank 2.
  EXPECT_EQ(rep.attempts[1].nranks, 4);
  EXPECT_EQ(rep.attempts[1].failed_world_ranks, (std::vector<int>{2}));
}

TEST(Recovery, StragglerReclassificationExcludesWholeNode) {
  // Node 1 runs 50x slow; the straggler policy reclassifies it as degraded
  // at the first barrier, and the runner excludes the whole node — both its
  // ranks — before the (clean) retry.
  Machine mach = Machine::unit_test();
  mach.ranks_per_node = 2;
  ResilientRunner runner(4, mach);
  FaultPlan fp;
  fp.stragglers.push_back({.node = 1, .factor = 50.0});
  runner.set_fault_plan(fp);
  StragglerPolicy sp;
  sp.enabled = true;
  sp.degrade_factor = 5.0;
  sp.min_lag_s = 1e-6;
  runner.set_straggler_policy(sp);
  const RecoveryReport rep = runner.run([](Comm& c) {
    for (int i = 0; i < 3; ++i) {
      c.charge_compute(1e6, 0);
      c.barrier();
    }
  });
  EXPECT_TRUE(rep.ok);
  ASSERT_EQ(rep.attempts_used(), 2);
  EXPECT_EQ(rep.attempts[0].degraded_nodes, (std::vector<int>{1}));
  EXPECT_EQ(rep.attempts[0].failed_world_ranks, (std::vector<int>{2, 3}));
  EXPECT_NE(rep.attempts[0].error.find("straggler policy"), std::string::npos)
      << rep.attempts[0].error;
  EXPECT_EQ(rep.final_nranks, 2);
  EXPECT_EQ(rep.surviving_world_ranks, (std::vector<int>{0, 1}));
}

TEST(Recovery, UnshrinkableFailureIsNotRetried) {
  // A deterministic input error raised collectively marks every rank failed
  // with no degraded node: shrinking cannot fix it, so the runner must give
  // up immediately instead of burning the retry budget.
  ResilientRunner runner(4, Machine::unit_test(),
                         RetryPolicy{.max_attempts = 5});
  try {
    runner.run([](Comm&) {
      throw Error("deterministic input error on every rank");
    });
    FAIL() << "run() should have thrown";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("not shrinkable"), std::string::npos) << msg;
  }
  EXPECT_EQ(runner.report().attempts_used(), 1);
}

// ---------------------------------------------------------------------------
// ABFT: every single-byte corruption of Cannon skew/shift traffic must be
// neutralized, with C bit-identical to an uncorrupted run.
// ---------------------------------------------------------------------------

/// One protected multiply at P = 4 on a forced 2x2x1 grid: every Cannon
/// skew/shift tile is 24x24 doubles (4608 payload bytes + 16-byte checksum
/// trailer on the wire). Returns the aggregate number of corruptions the
/// decoders neutralized.
i64 run_abft_multiply(const FaultPlan& fp, bool abft,
                      std::vector<std::vector<double>>* out) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.set_fault_plan(fp);
  out->assign(static_cast<size_t>(P), {});
  Ca3dmmOptions opt;
  opt.abft = abft;
  opt.force_grid = ProcGrid{2, 2, 1};
  cl.run(pgemm_main(48, 48, 48, out, opt));
  return cl.aggregate_stats().abft_corrected;
}

TEST(Abft, ProtectionItselfDoesNotChangeResults) {
  std::vector<std::vector<double>> plain, protected_c;
  run_abft_multiply(FaultPlan{}, false, &plain);
  const i64 corrected = run_abft_multiply(FaultPlan{}, true, &protected_c);
  EXPECT_EQ(corrected, 0);
  expect_bitwise_equal(protected_c, plain, 4);
}

TEST(Abft, EverySingleByteFlipIsNeutralized) {
  // Enumerate every (src, dst) pair x every Cannon tag x offsets in the
  // payload head, payload middle, and the checksum trailer itself. Channels
  // that carry no traffic leave the run untouched; every channel that does
  // must be corrected (or absorbed, for trailer hits) to a C bit-identical
  // to the clean protected run.
  std::vector<std::vector<double>> clean;
  ASSERT_EQ(run_abft_multiply(FaultPlan{}, true, &clean), 0);

  const int kTags[] = {101, 201, 301, 401};  // shift A/B, skew A/B
  const i64 kOffsets[] = {0, 2047, 4615};    // head, middle, trailer byte
  i64 total_corrected = 0;
  int fired = 0;
  for (int src = 0; src < 4; ++src)
    for (int dst = 0; dst < 4; ++dst)
      for (int tag : kTags)
        for (i64 off : kOffsets) {
          SCOPED_TRACE("src=" + std::to_string(src) +
                       " dst=" + std::to_string(dst) +
                       " tag=" + std::to_string(tag) +
                       " off=" + std::to_string(off));
          FaultPlan fp;
          fp.flips.push_back({.src = src,
                              .dst = dst,
                              .tag = tag,
                              .nth_match = 1,
                              .offset = off,
                              .mask = 0x10});
          std::vector<std::vector<double>> out;
          const i64 corrected = run_abft_multiply(fp, true, &out);
          total_corrected += corrected;
          if (corrected > 0) ++fired;
          expect_bitwise_equal(out, clean, 4);
        }
  // The 2x2 Cannon step has 8 shift channels and 4 cross-rank skew
  // channels; each enumerated offset hits them all, so at least 36 of the
  // injections genuinely corrupted a message in flight.
  EXPECT_GE(fired, 36);
  EXPECT_GE(total_corrected, fired);
}

TEST(Abft, UnprotectedFlipCorruptsTheResult) {
  // Negative control: the same class of flip with protection off must
  // corrupt C — proving the enumeration above exercises real faults, not
  // channels that never exist. Flipping the top byte of the first double of
  // every A-shift message (sign/exponent bits) guarantees a visible change.
  std::vector<std::vector<double>> plain, corrupted;
  run_abft_multiply(FaultPlan{}, false, &plain);
  FaultPlan fp;
  for (int src = 0; src < 4; ++src)
    for (int dst = 0; dst < 4; ++dst)
      fp.flips.push_back({.src = src,
                          .dst = dst,
                          .tag = 101,
                          .nth_match = 1,
                          .offset = 7,
                          .mask = 0x80});
  const i64 corrected = run_abft_multiply(fp, false, &corrupted);
  EXPECT_EQ(corrected, 0);  // no decoder ran
  bool differs = false;
  for (int r = 0; r < 4 && !differs; ++r)
    differs = corrupted[static_cast<size_t>(r)] != plain[static_cast<size_t>(r)];
  EXPECT_TRUE(differs);
}

TEST(Abft, MultiByteCorruptionRaisesInsteadOfSilentlyDegrading) {
  // Two corrupted bytes in one message exceed the single-error correction
  // capability: the decoder must raise (detection never silently degrades
  // to a wrong C), and the error is rank-attributed like any other fault.
  // Offsets 0 and 5 put the errors at parity positions 1 and 6, which
  // differ in more than one bit — a pair the XOR parity provably cannot
  // mistake for a correctable single error (see docs/RESILIENCE.md).
  FaultPlan fp;
  for (int src = 0; src < 4; ++src)
    for (int dst = 0; dst < 4; ++dst)
      for (i64 off : {i64{0}, i64{5}})
        fp.flips.push_back({.src = src,
                            .dst = dst,
                            .tag = 101,
                            .nth_match = 1,
                            .offset = off,
                            .mask = 0x10});
  std::vector<std::vector<double>> out(4);
  Cluster cl(4, Machine::unit_test());
  cl.set_fault_plan(fp);
  Ca3dmmOptions opt;
  opt.abft = true;
  opt.force_grid = ProcGrid{2, 2, 1};
  const std::string msg =
      run_expect_error(cl, pgemm_main(48, 48, 48, &out, opt));
  EXPECT_NE(msg.find("abft: uncorrectable corruption"), std::string::npos)
      << msg;
}

// ---------------------------------------------------------------------------
// Engine-level recovery: a failed request must not poison the PgemmEngine.
// ---------------------------------------------------------------------------

TEST(EngineRecovery, EngineIsReusableAfterFailedRequest) {
  // A request that fails validation mid-execute (same plan key as a cached
  // good request, but an inconsistent C layout) must invalidate the
  // poisoned cache entry; the next identical good request rebuilds it and
  // produces a bit-identical result.
  const i64 m = 24;
  const int P = 4;
  const BlockLayout lay = BlockLayout::col_1d(m, m, P);
  const BlockLayout c_bad(m + 1, m, P);
  Cluster cl(P, Machine::unit_test());
  engine::EngineStats st;
  std::vector<std::vector<double>> first(P), second(P);
  cl.run([&](Comm& world) {
    const int me = world.rank();
    std::vector<double> a, b;
    fill_local(lay, me, kSeedA, a);
    fill_local(lay, me, kSeedB, b);
    std::vector<double> c(static_cast<size_t>(lay.local_size(me)));
    engine::PgemmEngine eng(world);
    engine::Request<double> good;
    good.m = m;
    good.n = m;
    good.k = m;
    good.a_layout = &lay;
    good.a = a.data();
    good.b_layout = &lay;
    good.b = b.data();
    good.c_layout = &lay;
    good.c = c.data();
    eng.multiply(good);
    first[static_cast<size_t>(me)] = c;

    // Same plan key, bad C layout: every rank raises the same validation
    // error before any communication, so the failure is symmetric and the
    // cluster keeps running.
    std::vector<double> cb(static_cast<size_t>(c_bad.local_size(me)));
    engine::Request<double> bad = good;
    bad.c_layout = &c_bad;
    bad.c = cb.data();
    try {
      eng.multiply(bad);
      ADD_FAILURE() << "bad request did not raise";
    } catch (const Error&) {
    }

    std::fill(c.begin(), c.end(), 0.0);
    eng.multiply(good);
    second[static_cast<size_t>(me)] = c;
    if (me == 0) st = eng.stats();
  });
  EXPECT_EQ(st.plan_misses, 2);          // first good + rebuild after poison
  EXPECT_EQ(st.plan_hits, 1);            // the bad request hit the cache
  EXPECT_EQ(st.plan_invalidations, 1);   // ... and poisoned the entry
  EXPECT_EQ(st.requests, 2);             // only successful requests count
  expect_bitwise_equal(second, first, P);
}

}  // namespace
}  // namespace ca3dmm::simmpi
