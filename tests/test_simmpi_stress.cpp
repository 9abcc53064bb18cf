// Randomized stress tests of the simulated runtime: deep split trees,
// interleaved collectives on sibling communicators, mixed p2p/collective
// traffic, repeated cluster reuse, a rank kill while peers are parked on
// every kind of wait list, and a rerun after a kill on the stacks and rank
// buffer pools the killed run left behind. These guard the rendezvous machinery against
// ordering bugs that simple unit tests cannot reach.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace ca3dmm::simmpi {
namespace {

TEST(Stress, RandomSplitTreeWithCollectives) {
  const int P = 18;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    Comm cur = world.split(0, world.rank());
    Rng rng(1234);  // same stream on every rank: identical split decisions
    for (int level = 0; level < 6; ++level) {
      const int groups = static_cast<int>(rng.uniform(1, 4));
      const int color = cur.rank() % groups;
      Comm next = cur.split(color, cur.rank());
      ASSERT_TRUE(next.valid());
      // Group-wide allreduce must equal a locally computed oracle.
      double v = world.rank(), sum = 0;
      next.allreduce(&v, &sum, 1);
      double expect = 0;
      for (int r = 0; r < cur.size(); ++r)
        if (r % groups == color) expect += cur.world_rank_of(r);
      ASSERT_DOUBLE_EQ(sum, expect) << "level " << level;
      cur = next;
      if (cur.size() == 1) break;
    }
  });
}

TEST(Stress, SiblingGroupsInterleaveDifferentOpCounts) {
  // Odd ranks run more collectives than even ranks on their own comms; the
  // runtime must keep the rendezvous of sibling groups independent.
  const int P = 12;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    Comm g = world.split(world.rank() % 2, world.rank());
    const int reps = (world.rank() % 2 == 0) ? 3 : 11;
    double acc = 0;
    for (int i = 0; i < reps; ++i) {
      double v = 1, s = 0;
      g.allreduce(&v, &s, 1);
      acc += s;
    }
    EXPECT_DOUBLE_EQ(acc, reps * 6.0);
  });
}

TEST(Stress, MixedP2pAndCollectives) {
  const int P = 10;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int me = world.rank();
    // Ring p2p interleaved with world barriers; deterministic payloads.
    double acc = 0;
    for (int round = 0; round < 8; ++round) {
      const double v = me * 100.0 + round;
      double got = -1;
      world.sendrecv(&v, 1, (me + 1) % P, &got, 1, (me + P - 1) % P, round);
      ASSERT_DOUBLE_EQ(got, ((me + P - 1) % P) * 100.0 + round);
      if (round % 3 == 0) world.barrier();
      acc += got;
    }
    (void)acc;
  });
}

TEST(Stress, ManySmallMessagesFifo) {
  const int P = 2;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    const int n = 500;
    if (world.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        const double v = i;
        world.send(&v, 1, 1, i % 7);  // several interleaved tag streams
      }
    } else {
      std::vector<int> next(7, 0);
      // Drain tag streams in an order different from the send order.
      for (int tag = 6; tag >= 0; --tag) {
        for (int i = tag; i < n; i += 7) {
          double v = -1;
          world.recv(&v, 1, 0, tag);
          ASSERT_DOUBLE_EQ(v, static_cast<double>(i));
        }
      }
    }
  });
}

TEST(Stress, ClusterReuseAcrossRuns) {
  Cluster cl(8, Machine::unit_test());
  for (int run = 0; run < 5; ++run) {
    cl.run([&](Comm& world) {
      double v = world.rank() + run, s = 0;
      world.allreduce(&v, &s, 1);
      EXPECT_DOUBLE_EQ(s, 28.0 + 8.0 * run);
    });
    // Stats reset between runs.
    EXPECT_GT(cl.stats(0).vtime, 0.0);
    EXPECT_EQ(cl.stats(0).cur_bytes, 0);
  }
}

TEST(Stress, LargeRankCount) {
  // 64 rank fibers: correctness only.
  const int P = 64;
  Cluster cl(P, Machine::phoenix_mpi());
  cl.run([&](Comm& world) {
    std::vector<double> all(static_cast<size_t>(P));
    const double mine = world.rank() * world.rank();
    world.allgather(&mine, 1, all.data());
    for (int r = 0; r < P; ++r)
      ASSERT_DOUBLE_EQ(all[static_cast<size_t>(r)],
                       static_cast<double>(r) * r);
    Comm g = world.split(world.rank() / 8, world.rank());
    double v = 1, s = 0;
    g.allreduce(&v, &s, 1);
    ASSERT_DOUBLE_EQ(s, 8.0);
  });
}

TEST(Stress, VirtualTimeMonotonePerRank) {
  const int P = 6;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    double last = world.now();
    for (int i = 0; i < 10; ++i) {
      world.barrier();
      EXPECT_GE(world.now(), last);
      last = world.now();
      world.charge_compute(1e3, 0);
      EXPECT_GT(world.now(), last);
      last = world.now();
    }
  });
}

/// A healthy run (ring shifts, an allreduce, a barrier) whose per-rank
/// vtimes a reused Cluster must reproduce exactly.
std::vector<double> healthy_vtimes(Cluster& cl) {
  const int P = cl.nranks();
  cl.run([P](Comm& c) {
    const int me = c.rank();
    double v = me;
    for (int step = 0; step < 3; ++step) {
      double got = -1;
      c.sendrecv(&v, 1, (me + 1) % P, &got, 1, (me + P - 1) % P, step);
      v = got;
    }
    double sum = 0;
    c.allreduce(&v, &sum, 1);
    ASSERT_EQ(sum, P * (P - 1) / 2.0);
    c.barrier();
  });
  std::vector<double> vt;
  for (int r = 0; r < P; ++r) vt.push_back(cl.stats(r).vtime);
  return vt;
}

TEST(AbortStress, KillWhilePeersParkedInRecvSendrecvAndCollective) {
  // Four workers; rank 0 is killed at its 3rd comm op while the other
  // ranks wait on it in every kind of wait list: recv (ranks 1-5, inbox
  // slots of their own inboxes), sendrecv-wait (ranks 6-10, slots of rank
  // 0's inbox: their recv half is satisfied by a message to themselves) and
  // a barrier on a communicator rank 0 belongs to (ranks 11-15, the
  // communicator's list under the cluster lock). The abort must wake them
  // all, the run must raise the kill attributed to rank 0 alone, and the
  // same Cluster must then run healthy traffic with the vtimes of a fresh
  // one.
  const int P = 16;
  Cluster fresh(P, Machine::unit_test());
  fresh.set_fiber_workers(4);
  const std::vector<double> expect = healthy_vtimes(fresh);

  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_workers(4);
  for (int iter = 0; iter < 8; ++iter) {
    FaultPlan fp;
    fp.kills.push_back({.rank = 0, .at_op = 3});
    cl.set_fault_plan(fp);
    std::string msg;
    try {
      cl.run([](Comm& c) {
        const int me = c.rank();
        Comm sub = c.split(me == 0 || me >= 11 ? 1 : 0, me);  // op 1
        double x = me, y = 0;
        if (me == 0) {
          c.send(&x, 1, 15, 99);  // op 2: eager, never received
          sub.barrier();          // op 3: killed here
        } else if (me <= 5) {
          c.recv(&y, 1, 0, 7);
        } else if (me <= 10) {
          c.send(&x, 1, me, 8);
          c.sendrecv(&x, 1, 0, &y, 1, me, 8);
        } else {
          sub.barrier();
        }
        ADD_FAILURE() << "rank " << me << " returned past the kill";
      });
    } catch (const Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("rank 0 failed: fault injection: rank 0 killed at its "
                       "comm op 3"),
              std::string::npos)
        << msg;
    EXPECT_EQ(cl.failed_ranks(), std::vector<int>{0});
    cl.set_fault_plan({});
    EXPECT_EQ(healthy_vtimes(cl), expect) << "iteration " << iter;
    EXPECT_TRUE(cl.failed_ranks().empty());
  }
}

/// Ring traffic over tracked work buffers that every rank allocates before
/// its first comm op; returns per-rank (vtime, peak bytes).
std::vector<std::pair<double, i64>> buffered_ring(Cluster& cl) {
  const int P = cl.nranks();
  cl.run([P](Comm& c) {
    const int me = c.rank();
    TrackedBuffer<double> send(64 + me), recv(64 + (me + P - 1) % P);
    TrackedBuffer<double> scratch(1000);
    for (i64 i = 0; i < send.size(); ++i) send[i] = me + 0.5 * i;
    for (int step = 0; step < 4; ++step) {
      c.sendrecv(send.data(), send.size(), (me + 1) % P, recv.data(),
                 recv.size(), (me + P - 1) % P, step);
      ASSERT_EQ(recv[1], (me + P - 1) % P + 0.5);
      c.barrier();
    }
  });
  std::vector<std::pair<double, i64>> out;
  for (int r = 0; r < P; ++r)
    out.emplace_back(cl.stats(r).vtime, cl.stats(r).peak_bytes);
  return out;
}

TEST(AbortStress, KillThenRerunReusesPoolsAndStacks) {
  // A rank killed mid-run unwinds every rank's tracked buffers back into
  // the rank pools and leaves every fiber finished. The next run on the same
  // Cluster maps no stack, allocates nothing from the heap, and matches a
  // fresh Cluster's vtimes and peak bytes.
  const int P = 12;
  Cluster fresh(P, Machine::unit_test());
  fresh.set_fiber_workers(4);
  const auto expect = buffered_ring(fresh);

  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_workers(4);
  for (int iter = 0; iter < 4; ++iter) {
    FaultPlan fp;
    fp.kills.push_back({.rank = 5, .at_op = 4});
    cl.set_fault_plan(fp);
    EXPECT_THROW(buffered_ring(cl), Error);
    EXPECT_EQ(cl.failed_ranks(), std::vector<int>{5});
    EXPECT_EQ(cl.host_profile().stacks_mapped, iter == 0 ? P : 0);
    cl.set_fault_plan({});
    EXPECT_EQ(buffered_ring(cl), expect) << "iteration " << iter;
    EXPECT_EQ(cl.host_profile().stacks_mapped, 0);
    EXPECT_EQ(cl.host_profile().pool_misses, 0);
    EXPECT_EQ(cl.host_profile().pool_hits, 3 * P);
  }
}

}  // namespace
}  // namespace ca3dmm::simmpi
