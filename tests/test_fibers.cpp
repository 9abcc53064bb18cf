// The fiber scheduler: the determinism contract (results, per-rank virtual
// times, per-phase stats, and trace critical paths bit-identical under any
// dispatch order — one worker against four), exact deadlock detection and
// fault injection, work stealing between the per-worker run queues, stacks
// and rank buffer pools kept across runs, the zero-copy posted-receive fast
// path, and a many-rank smoke at P=512.
#include <alloca.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/ca3dmm.hpp"
#include "costmodel/drift.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/trace.hpp"

namespace ca3dmm::simmpi {
namespace {

using costmodel::Algo;
using costmodel::Workload;

/// Worker counts the parity tests compare: one worker dispatches in a
/// fixed lowest-vclock-first order; four interleave as the host schedules.
constexpr int kWorkerCounts[] = {1, 4};

/// Every field of RankStats that is part of the determinism contract must
/// match bit-for-bit across dispatch orders. p2p_zero_copy is deliberately
/// excluded: it depends on send/recv arrival order, which several workers
/// leave to the host scheduler (vtimes are identical either way).
void expect_stats_identical(const RankStats& a, const RankStats& b, int rank) {
  EXPECT_EQ(a.vtime, b.vtime) << "rank " << rank;
  EXPECT_EQ(a.flops, b.flops) << "rank " << rank;
  EXPECT_EQ(a.peak_bytes, b.peak_bytes) << "rank " << rank;
  EXPECT_EQ(a.comm_splits, b.comm_splits) << "rank " << rank;
  EXPECT_EQ(a.abft_corrected, b.abft_corrected) << "rank " << rank;
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    EXPECT_EQ(a.phase_s[p], b.phase_s[p]) << "rank " << rank << " phase " << p;
    EXPECT_EQ(a.inter_bytes_s[p], b.inter_bytes_s[p])
        << "rank " << rank << " phase " << p;
    EXPECT_EQ(a.bytes_sent_s[p], b.bytes_sent_s[p])
        << "rank " << rank << " phase " << p;
    EXPECT_EQ(a.bytes_recvd_s[p], b.bytes_recvd_s[p])
        << "rank " << rank << " phase " << p;
  }
}

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

TEST(FiberParity, MixedWorkloadBitIdenticalAcrossSeeds) {
  // A collective-heavy workload with a p2p ring, swept over seeds that
  // perturb every value flowing through the collectives and the ring.
  // Per-rank payloads, final clocks, and full stats must be bit-identical
  // between one worker and four for every seed.
  const int P = 12;
  for (const int seed : {1, 7, 1234}) {
    std::vector<std::vector<double>> payload(2);
    std::vector<std::vector<RankStats>> stats(2);
    int bi = 0;
    for (const int workers : kWorkerCounts) {
      Machine mach = Machine::phoenix_mpi();
      mach.ranks_per_node = 4;
      Cluster cl(P, mach);
      cl.set_fiber_workers(workers);
      payload[bi].assign(static_cast<size_t>(P), 0.0);
      auto& out = payload[bi];
      cl.run([&out, seed](Comm& c) {
        const int me = c.rank(), n = c.size();
        double acc = seed * 0.5;
        double in[4], red[4];
        std::vector<double> gath(static_cast<size_t>(n));
        for (int round = 0; round < 40; ++round) {
          for (int i = 0; i < 4; ++i) in[i] = me * 1e-3 + seed + round + i;
          c.allreduce(in, red, 4);
          acc += red[0] - red[3];
          double s = acc + me, r = 0;
          c.sendrecv(&s, 1, (me + 1) % n, &r, 1, (me + n - 1) % n,
                     /*tag=*/(round + seed) & 0x3F);
          acc += 1e-9 * r;
          c.allgather(&acc, 1, gath.data());
          acc += gath[static_cast<size_t>((me + round) % n)] * 1e-6;
          c.barrier();
        }
        out[static_cast<size_t>(me)] = acc;
      });
      for (int r = 0; r < P; ++r) stats[bi].push_back(cl.stats(r));
      ++bi;
    }
    EXPECT_EQ(payload[0], payload[1]) << "seed " << seed;
    for (int r = 0; r < P; ++r)
      expect_stats_identical(stats[0][static_cast<size_t>(r)],
                             stats[1][static_cast<size_t>(r)], r);
  }
}

TEST(FiberParity, Ca3dmmExecutionStatsIdentical) {
  // The full CA3DMM pipeline (redistribute, replicate, Cannon, reduce)
  // executed on one worker and on four: aggregate and per-rank stats
  // bit-identical.
  const Workload w{96, 96, 96};
  Cluster one(16, Machine::unit_test());
  Cluster four(16, Machine::unit_test());
  one.set_fiber_workers(1);
  four.set_fiber_workers(4);
  const RankStats agg_one = costmodel::run_workload(Algo::kCa3dmm, w, one);
  const RankStats agg_four = costmodel::run_workload(Algo::kCa3dmm, w, four);
  expect_stats_identical(agg_one, agg_four, -1);
  for (int r = 0; r < 16; ++r)
    expect_stats_identical(one.stats(r), four.stats(r), r);
}

TEST(FiberParity, TraceAndCriticalPathIdentical) {
  // With tracing on, one worker and four must record the same per-rank
  // timelines: same record count and fields per rank, and the same critical
  // path (the formatted path string is a pure function of the trace).
  const Workload w{64, 64, 64};
  Cluster one(8, Machine::unit_test());
  Cluster four(8, Machine::unit_test());
  one.set_fiber_workers(1);
  four.set_fiber_workers(4);
  one.set_trace(true);
  four.set_trace(true);
  costmodel::run_workload(Algo::kCa3dmm, w, one);
  costmodel::run_workload(Algo::kCa3dmm, w, four);
  for (int r = 0; r < 8; ++r) {
    const auto& a = one.trace(r);
    const auto& b = four.trace(r);
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind) << "rank " << r << " rec " << i;
      EXPECT_STREQ(a[i].name, b[i].name) << "rank " << r << " rec " << i;
      EXPECT_EQ(a[i].t0, b[i].t0) << "rank " << r << " rec " << i;
      EXPECT_EQ(a[i].t1, b[i].t1) << "rank " << r << " rec " << i;
      EXPECT_EQ(a[i].dep_rank, b[i].dep_rank) << "rank " << r << " rec " << i;
      EXPECT_EQ(a[i].t_dep, b[i].t_dep) << "rank " << r << " rec " << i;
    }
  }
  EXPECT_EQ(format_critical_path(critical_path(one)),
            format_critical_path(critical_path(four)));
  EXPECT_EQ(format_aggregate_table(aggregate_trace(one)),
            format_aggregate_table(aggregate_trace(four)));
}

TEST(FiberWatchdog, DeadlockDetectedOnFibers) {
  // Parked fibers cannot self-resume, so "nothing runnable, nothing
  // running" is the deadlock criterion, exact on any worker count; the
  // report is the rank-attributed wait-for diagnostic. The aborted run
  // leaves the cluster reusable.
  for (const int workers : kWorkerCounts) {
    Cluster cl(2, Machine::unit_test());
    cl.set_fiber_workers(workers);
    const std::string msg = run_expect_error(cl, [](Comm& c) {
      if (c.rank() == 0) {
        double x = 0;
        c.recv(&x, 1, 1, 999);  // rank 1 sends tag 7, never 999
      } else {
        double v = 1;
        c.send(&v, 1, 0, 7);
      }
    });
    EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("wait-for table"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag=999"), std::string::npos) << msg;
    cl.run([](Comm& c) { c.barrier(); });
  }
}

TEST(FiberFaults, KillRankCaughtOnFibers) {
  Cluster cl(4, Machine::unit_test());
  FaultPlan fp;
  fp.kills.push_back({.rank = 2, .at_op = 3});
  cl.set_fault_plan(fp);
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    for (int i = 0; i < 10; ++i) c.barrier();
  });
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fault injection"), std::string::npos) << msg;
  ASSERT_EQ(cl.failed_ranks().size(), 1u);
  EXPECT_EQ(cl.failed_ranks()[0], 2);

  // A clean plan runs again on the same cluster, on the stacks and rank
  // pools the killed run left.
  cl.set_fault_plan(FaultPlan{});
  cl.run([](Comm& c) { c.barrier(); });
}

TEST(FiberFaults, StragglerVtimesIndependentOfDispatchOrder) {
  // Fault-injected time dilation must flow through the fiber scheduler's
  // vclock ordering without disturbing determinism: one worker and four
  // see the same straggler-shifted clocks.
  FaultPlan fp;
  fp.stragglers.push_back({.node = 1, .factor = 3.0});
  auto body = [](Comm& c) {
    c.charge_compute(1e6, 0);
    c.barrier();
    // Trailing *local* work after the barrier: the straggled rank's clock
    // ends 3x further out, observable in its final vtime.
    c.charge_compute(1e6, 0);
  };
  std::vector<double> vt[2];
  int bi = 0;
  for (const int workers : kWorkerCounts) {
    Cluster cl(4, Machine::unit_test());
    cl.set_fiber_workers(workers);
    cl.set_fault_plan(fp);
    cl.run(body);
    for (int r = 0; r < 4; ++r) vt[bi].push_back(cl.stats(r).vtime);
    ++bi;
  }
  EXPECT_EQ(vt[0], vt[1]);
  EXPECT_GT(vt[1][1], vt[1][0]);  // straggled rank finishes later
}

TEST(FiberFaults, PayloadFlipFiresOnZeroCopyPath) {
  // Rank 0 posts its recv first (one worker dispatches rank 0 at vclock 0
  // until it parks), so rank 1's send takes the zero-copy path — and the
  // flip must corrupt the posted buffer exactly as it would the staged
  // copy.
  Cluster cl(2, Machine::unit_test());
  cl.set_fiber_workers(1);
  FaultPlan fp;
  fp.flips.push_back(
      {.src = 1, .dst = 0, .tag = 5, .nth_match = 1, .offset = 0, .mask = 1});
  cl.set_fault_plan(fp);
  double got = 0;
  cl.run([&got](Comm& c) {
    if (c.rank() == 0) {
      c.recv(&got, 1, 1, 5);
    } else {
      double v = 1.0;
      c.send(&v, 1, 0, 5);
    }
  });
  double expect = 1.0;
  unsigned char b[sizeof(double)];
  std::memcpy(b, &expect, sizeof b);
  b[0] ^= 1;
  std::memcpy(&expect, b, sizeof expect);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(cl.stats(0).p2p_zero_copy, 1);  // the fast path really fired
}

TEST(ZeroCopy, PostedReceiveTakesFastPathWithIdenticalTiming) {
  // With one worker, receiver-first order (rank 0 posts, rank 1 sends) must
  // hit the zero-copy path; sender-first order (rank 0 sends into an
  // unposted channel) must not. Both orders, on one worker and on four,
  // produce the same values and virtual clocks.
  auto recv_first = [](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      c.recv(&x, 1, 1, 0);
      EXPECT_EQ(x, 41.0);
    } else {
      x = 41.0;
      c.send(&x, 1, 0, 0);
    }
  };
  auto send_first = [](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      x = 43.0;
      c.send(&x, 1, 1, 0);
    } else {
      c.recv(&x, 1, 0, 0);
      EXPECT_EQ(x, 43.0);
    }
  };

  Cluster one(2, Machine::unit_test());
  one.set_fiber_workers(1);
  one.run(recv_first);
  EXPECT_EQ(one.stats(0).p2p_zero_copy, 1);
  const double vt_recv = one.stats(0).vtime;
  one.run(send_first);
  EXPECT_EQ(one.stats(1).p2p_zero_copy, 0);  // eager: nothing was posted
  const double vt_send = one.stats(1).vtime;

  Cluster four(2, Machine::unit_test());
  four.set_fiber_workers(4);
  four.run(recv_first);
  EXPECT_EQ(four.stats(0).vtime, vt_recv);
  four.run(send_first);
  EXPECT_EQ(four.stats(1).vtime, vt_send);
  // Delivery path never changes modeled time: receiver's cost is the same
  // whether the message was staged or delivered zero-copy.
  EXPECT_EQ(vt_recv, vt_send);
}

TEST(ZeroCopy, SizeMismatchStillRaisedOnReceiver) {
  // A posted-size mismatch must decline the fast path and flow through the
  // eager queue so the *receiver* raises the error, same attribution as the
  // staged path.
  Cluster cl(2, Machine::unit_test());
  const std::string msg = run_expect_error(cl, [](Comm& c) {
    double x[2] = {1, 2};
    if (c.rank() == 0)
      c.recv(x, 2, 1, 0);  // posts 16 bytes; sender provides 8
    else
      c.send(x, 1, 0, 0);
  });
  EXPECT_NE(msg.find("recv size mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
}

/// One CA3DMM multiply on `cl` with fixed per-rank inputs: returns every
/// rank's local C block.
std::vector<std::vector<double>> multiply_once(Cluster& cl) {
  const int P = cl.nranks();
  const Ca3dmmPlan plan = Ca3dmmPlan::make(48, 40, 64, P);
  std::vector<std::vector<double>> c(static_cast<size_t>(P));
  cl.run([&](Comm& world) {
    const int r = world.rank();
    std::vector<double> a(static_cast<size_t>(plan.a_native().local_size(r)));
    std::vector<double> b(static_cast<size_t>(plan.b_native().local_size(r)));
    for (size_t i = 0; i < a.size(); ++i) a[i] = 0.5 * r + 0.25 * i;
    for (size_t i = 0; i < b.size(); ++i) b[i] = 1.0 - 0.125 * r + 0.5 * i;
    std::vector<double>& cr = c[static_cast<size_t>(r)];
    cr.assign(static_cast<size_t>(plan.c_native().local_size(r)), 0.0);
    ca3dmm_multiply<double>(world, plan, false, false, plan.a_native(),
                            a.data(), plan.b_native(), b.data(),
                            plan.c_native(), cr.data());
  });
  return c;
}

TEST(FiberReuse, RepeatedRunsMatchFreshClusterAndReuseMemory) {
  // The Cluster keeps its fiber stacks and rank buffer pools across runs.
  // A repeated multiply must give the vtimes, C and peak bytes of a fresh
  // Cluster, map no stack, and take every work buffer from the pools.
  const int P = 16;
  Cluster fresh(P, Machine::unit_test());
  fresh.set_fiber_workers(4);
  const std::vector<std::vector<double>> c_fresh = multiply_once(fresh);
  EXPECT_EQ(fresh.host_profile().stacks_mapped, P);
  EXPECT_GT(fresh.host_profile().pool_misses, 0);

  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_workers(4);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(multiply_once(cl), c_fresh) << "run " << run;
    for (int r = 0; r < P; ++r)
      expect_stats_identical(cl.stats(r), fresh.stats(r), r);
    const HostProfile& hp = cl.host_profile();
    if (run == 0) {
      EXPECT_EQ(hp.stacks_mapped, P);
    } else {
      EXPECT_EQ(hp.stacks_mapped, 0) << "run " << run;
      EXPECT_GT(hp.pool_hits, 0) << "run " << run;
      EXPECT_EQ(hp.pool_misses, 0) << "run " << run;
    }
  }
}

TEST(FiberReuse, BufferEscapingTheRunIsAnError) {
  // A TrackedBuffer that outlives the run still holds rank pool memory the
  // next run would hand out again: run() must refuse it. Once the buffers
  // are released, the Cluster runs normally.
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  {
    std::vector<TrackedBuffer<double>> escaped(static_cast<size_t>(P));
    const std::string msg = run_expect_error(cl, [&](Comm& c) {
      escaped[static_cast<size_t>(c.rank())].resize(16);
    });
    EXPECT_NE(msg.find("leaked 128 tracked bytes"), std::string::npos) << msg;
  }
  cl.run([](Comm& c) {
    TrackedBuffer<double> b(16);
    c.barrier();
  });
  EXPECT_EQ(cl.host_profile().pool_hits, P);
}

/// Touches `bytes` of the calling fiber's stack.
[[gnu::noinline]] int touch_stack(std::size_t bytes) {
  auto* p = static_cast<volatile char*>(alloca(bytes));
  for (std::size_t i = 0; i < bytes; i += 4096) p[i] = 1;
  return p[0];
}

TEST(FiberReuse, StackSizeAndWorkerChangesRebuildStacks) {
  // A new stack size or worker count between runs rebuilds the stacks; the
  // next run with unchanged settings reuses them. 2 MiB of stack use only
  // fits once the 4 MiB stacks are in place.
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_stack_bytes(64u << 10);
  cl.run([](Comm& c) { c.barrier(); });
  EXPECT_EQ(cl.host_profile().stacks_mapped, P);
  cl.set_fiber_stack_bytes(4u << 20);
  int touched = 0;
  std::mutex mu;
  for (int run = 0; run < 2; ++run) {
    cl.run([&](Comm& c) {
      const int v = touch_stack(2u << 20);
      c.barrier();
      std::lock_guard<std::mutex> lk(mu);
      touched += v;
    });
    EXPECT_EQ(cl.host_profile().stacks_mapped, run == 0 ? P : 0);
  }
  EXPECT_EQ(touched, 2 * P);
  cl.set_fiber_workers(2);
  cl.run([](Comm& c) { c.barrier(); });
  EXPECT_EQ(cl.host_profile().stacks_mapped, P);
}

TEST(FiberStealing, RanksWokenOntoOneQueueAreStolen) {
  // Every rank parks on a recv nobody sends, so the deadlock abort wakes
  // all of them from the thread driving the run, onto worker 0's queue
  // alone. Each rank's unwind then holds its worker (blocked in the OS)
  // until four ranks hold one each, which the other three workers can only
  // reach by stealing from worker 0's queue. Every rank must finish.
  const int P = 16;
  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_workers(4);
  std::mutex mu;
  std::condition_variable cv;
  int holding = 0, timed_out = 0;
  struct HoldWorker {
    std::mutex& mu;
    std::condition_variable& cv;
    int& holding;
    int& timed_out;
    ~HoldWorker() {
      std::unique_lock<std::mutex> lk(mu);
      ++holding;
      cv.notify_all();
      if (!cv.wait_for(lk, std::chrono::seconds(10),
                       [&] { return holding >= 4; }))
        ++timed_out;
    }
  };
  const std::string msg = run_expect_error(cl, [&](Comm& c) {
    HoldWorker hold{mu, cv, holding, timed_out};
    double x = 0;
    c.recv(&x, 1, (c.rank() + 1) % P, 5);
  });
  EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
  EXPECT_EQ(holding, P);
  EXPECT_EQ(timed_out, 0);
  EXPECT_GE(cl.host_profile().steals, 3);
  // All ranks finished: the same Cluster runs again.
  cl.run([](Comm& c) { c.barrier(); });
}

std::int64_t ns_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

TEST(FiberWatchdog, DeadlockReportedAtOnceWhileWorkSitsOnOtherQueues) {
  // Rank 0 parks on a recv nobody sends at once, while 31 ranks still have
  // rounds of ring traffic queued on four workers' run queues. The idle
  // count must wait for all of them (the report shows each finished) and
  // then report at once: no timer is involved, so the median time from the
  // last rank's finish to the abort reaching rank 0 stays under 2 ms (the
  // median keeps one host hiccup from failing the test).
  const int P = 32;
  std::vector<double> latencies_ms;
  for (int iter = 0; iter < 5; ++iter) {
    Cluster cl(P, Machine::unit_test());
    cl.set_fiber_workers(4);
    std::atomic<std::int64_t> last_finish_ns{0}, aborted_ns{0};
    std::string msg;
    try {
      cl.run([&](Comm& c) {
        const int me = c.rank();
        Comm sub = c.split(me == 0 ? 1 : 0, me);
        if (me == 0) {
          double x = 0;
          try {
            c.recv(&x, 1, 1, 999);
          } catch (...) {  // the abort's unwind
            aborted_ns = ns_since_epoch(std::chrono::steady_clock::now());
            throw;
          }
          return;
        }
        const int n = sub.size(), r = sub.rank();
        double v = me;
        for (int round = 0; round < 20; ++round) {
          double got = -1;
          sub.sendrecv(&v, 1, (r + 1) % n, &got, 1, (r + n - 1) % n, round);
          v = got;
          if (round % 5 == 4) sub.barrier();
        }
        const std::int64_t now =
            ns_since_epoch(std::chrono::steady_clock::now());
        std::int64_t prev = last_finish_ns.load();
        while (prev < now && !last_finish_ns.compare_exchange_weak(prev, now)) {
        }
      });
    } catch (const Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("rank   0  blocked in recv"), std::string::npos) << msg;
    size_t finished = 0;
    for (size_t pos = 0; (pos = msg.find("finished", pos)) != std::string::npos;
         ++pos)
      ++finished;
    EXPECT_EQ(finished, static_cast<size_t>(P - 1)) << msg;
    latencies_ms.push_back(
        1e-6 * static_cast<double>(aborted_ns - last_finish_ns));
    EXPECT_GE(latencies_ms.back(), 0.0);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  EXPECT_LT(latencies_ms[2], 2.0) << "median of 5 detection latencies";
}

TEST(FiberScale, ManyRanksOnSmallStacksSmoke) {
  // 512 ranks in one address space — far past where thread-per-rank is
  // practical — on deliberately small 128 KiB stacks and a 2-worker pool.
  // All ranks leave the final barrier at the same virtual time, and the
  // allreduce result is exact.
  const int P = 512;
  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_stack_bytes(128u << 10);
  cl.set_fiber_workers(2);
  std::vector<double> sums(static_cast<size_t>(P), 0.0);
  cl.run([&sums](Comm& c) {
    double acc = 0;
    for (int round = 0; round < 3; ++round) {
      double v = c.rank() + 1, s = 0;
      c.allreduce(&v, &s, 1);
      acc += s;
      c.barrier();
    }
    sums[static_cast<size_t>(c.rank())] = acc;
  });
  const double expect = 3.0 * (static_cast<double>(P) * (P + 1) / 2);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(sums[static_cast<size_t>(r)], expect) << "rank " << r;
    EXPECT_EQ(cl.stats(r).vtime, cl.stats(0).vtime) << "rank " << r;
  }
}

}  // namespace
}  // namespace ca3dmm::simmpi
