// Point-to-point semantics of the simulated message-passing runtime:
// (src, dst, tag) matching, FIFO ordering per channel, rendezvous progress,
// ring shifts via sendrecv, communicator isolation, and the per-rank inbox
// that holds the channels (slot recycling, FIFO across delivery paths,
// unwinding sendrecv records, fault-plan flip counting).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace ca3dmm::simmpi {
namespace {

TEST(P2P, PingPong) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      x = 42.0;
      c.send(&x, 1, 1, 0);
      c.recv(&x, 1, 1, 1);
      EXPECT_DOUBLE_EQ(x, 43.0);
    } else {
      c.recv(&x, 1, 0, 0);
      EXPECT_DOUBLE_EQ(x, 42.0);
      x += 1.0;
      c.send(&x, 1, 0, 1);
    }
  });
}

TEST(P2P, TagMatching) {
  // Rank 0 sends two messages with different tags; rank 1 receives them in
  // the opposite order. Rendezvous sends deposit without blocking the match,
  // so tag selection must pick the right record.
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    if (c.rank() == 0) {
      const double a = 1.0, b = 2.0;
      // Deposit both via sendrecv-style trick is not needed: use two sends
      // from a helper ordering. Rank 1 first asks for tag 7.
      c.send(&b, 1, 1, 7);
      c.send(&a, 1, 1, 3);
    } else {
      double x = 0, y = 0;
      c.recv(&x, 1, 0, 7);
      c.recv(&y, 1, 0, 3);
      EXPECT_DOUBLE_EQ(x, 2.0);
      EXPECT_DOUBLE_EQ(y, 1.0);
    }
  });
}

TEST(P2P, FifoPerChannel) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const double v = i;
        c.send(&v, 1, 1, 0);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        double v = -1;
        c.recv(&v, 1, 0, 0);
        EXPECT_DOUBLE_EQ(v, static_cast<double>(i));
      }
    }
  });
}

TEST(P2P, RingShiftSendrecv) {
  // Classic Cannon-style circular shift: every rank passes its value left.
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    const int me = c.rank();
    const int dst = (me + P - 1) % P;  // send left
    const int src = (me + 1) % P;      // receive from right
    double mine = me, got = -1;
    c.sendrecv(&mine, 1, dst, &got, 1, src, 0);
    EXPECT_DOUBLE_EQ(got, static_cast<double>(src));
  });
}

TEST(P2P, RepeatedRingShiftsFullRotation) {
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    const int me = c.rank();
    double v = me;
    for (int step = 0; step < P; ++step) {
      double got = -1;
      c.sendrecv(&v, 1, (me + P - 1) % P, &got, 1, (me + 1) % P, 0);
      v = got;
    }
    EXPECT_DOUBLE_EQ(v, static_cast<double>(me));  // full rotation
  });
}

TEST(P2P, CommIsolation) {
  // Messages on a split communicator do not collide with world messages of
  // the same (src, dst, tag).
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    Comm sub = c.split(0, c.rank());
    if (c.rank() == 0) {
      const double a = 10.0, b = 20.0;
      c.send(&a, 1, 1, 0);
      sub.send(&b, 1, 1, 0);
    } else {
      double b = 0, a = 0;
      sub.recv(&b, 1, 0, 0);
      c.recv(&a, 1, 0, 0);
      EXPECT_DOUBLE_EQ(a, 10.0);
      EXPECT_DOUBLE_EQ(b, 20.0);
    }
  });
}

TEST(P2P, ZeroByteMessage) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    if (c.rank() == 0)
      c.send_bytes(nullptr, 0, 1, 0);
    else
      c.recv_bytes(nullptr, 0, 0, 0);
  });
}

TEST(P2P, LargePayloadIntegrity) {
  const i64 n = 100000;
  Cluster cl(2, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<double> buf(static_cast<size_t>(n));
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      c.send(buf.data(), n, 1, 0);
    } else {
      c.recv(buf.data(), n, 0, 0);
      for (i64 i = 0; i < n; i += 9999)
        ASSERT_DOUBLE_EQ(buf[static_cast<size_t>(i)], static_cast<double>(i));
    }
  });
}

TEST(P2P, RankExceptionPropagates) {
  Cluster cl(2, Machine::unit_test());
  EXPECT_THROW(cl.run([](Comm& c) {
                 if (c.rank() == 1) throw Error("boom");
                 // rank 0 finishes normally; no deadlock because it does not
                 // wait on rank 1
               }),
               Error);
}

TEST(Inbox, StaysBoundedAcrossManyTags) {
  // 10k distinct tags used in turn on one pair, by plain send/recv and by
  // sendrecv. A slot whose FIFO, posted recv and wait list are all empty is
  // recycled, so the inbox holds only the channels in flight, not one slot
  // per tag ever used.
  constexpr int kTags = 10000;
  for (const int workers : {1, 4}) {
    Cluster cl(2, Machine::unit_test());
    cl.set_fiber_workers(workers);
    cl.run([](Comm& c) {
      const int peer = 1 - c.rank();
      for (int t = 0; t < kTags; ++t) {
        double v = t, got = -1;
        if (c.rank() == 0) {
          c.send(&v, 1, peer, 2 * t);
        } else {
          c.recv(&got, 1, peer, 2 * t);
          ASSERT_EQ(got, v);
        }
        c.sendrecv(&v, 1, peer, &got, 1, peer, 2 * t + 1);
        ASSERT_EQ(got, v);
      }
    });
    EXPECT_GE(cl.host_profile().inbox_slots_peak, 1) << workers;
    EXPECT_LE(cl.host_profile().inbox_slots_peak, 4) << workers;
  }
}

TEST(Inbox, FifoAcrossEagerAndZeroCopyDeliveries) {
  // One channel carries, in order: a zero-copy delivery (the receiver is
  // parked with its recv posted), two eager messages (nothing posted, so
  // staged), and another zero-copy delivery. One worker dispatches in a
  // fixed order, so the paths are pinned exactly; four workers must still
  // deliver in order.
  for (const int workers : {1, 4}) {
    Cluster cl(2, Machine::unit_test());
    cl.set_fiber_workers(workers);
    std::vector<double> got;
    cl.run([&got](Comm& c) {
      double ack = 0;
      if (c.rank() == 0) {
        for (int i = 0; i < 3; ++i) {
          double v = -1;
          c.recv(&v, 1, 1, 0);
          got.push_back(v);
        }
        c.send(&ack, 1, 1, 1);
        double v = -1;
        c.recv(&v, 1, 1, 0);
        got.push_back(v);
      } else {
        for (int i = 0; i < 3; ++i) {
          const double v = i;
          c.send(&v, 1, 0, 0);
        }
        c.recv(&ack, 1, 0, 1);
        const double v = 3;
        c.send(&v, 1, 0, 0);
      }
    });
    EXPECT_EQ(got, (std::vector<double>{0, 1, 2, 3})) << workers;
    if (workers == 1) {
      // Messages 0 and 3 and the ack found their recv posted.
      EXPECT_EQ(cl.stats(0).p2p_zero_copy, 2);
      EXPECT_EQ(cl.stats(1).p2p_zero_copy, 1);
      EXPECT_EQ(cl.host_profile().zero_copy_bytes, 3 * 8);
      EXPECT_EQ(cl.host_profile().eager_bytes, 2 * 8);
    }
  }
}

TEST(Inbox, UnwindingSendrecvUnlinksItsRecordBehindAQueuedMessage) {
  // Rank 0 queues an eager message on channel (0 -> 1, tag 5), then a
  // sendrecv on the same channel whose receive half fails (size mismatch),
  // so the sendrecv unwinds with its stack record queued behind the eager
  // one. The record must leave the FIFO without disturbing it: rank 1 then
  // receives the eager message and the next one rank 0 sends, in order.
  for (const int workers : {1, 4}) {
    Cluster cl(2, Machine::unit_test());
    cl.set_fiber_workers(workers);
    std::vector<double> got;
    bool caught = false;
    cl.run([&](Comm& c) {
      if (c.rank() == 0) {
        const double m1 = 1, dead = 99, m2 = 2;
        double small = 0, big[2] = {0, 0};
        c.send(&m1, 1, 1, 5);
        try {
          c.sendrecv(&dead, 1, 1, &small, 1, 1, 5);  // peer sends 2 doubles
        } catch (const Error& e) {
          caught = std::string(e.what()).find("recv size mismatch") !=
                   std::string::npos;
        }
        c.send(&m2, 1, 1, 5);
        c.barrier();
        c.recv(big, 2, 1, 5);  // the mismatched message is still queued
      } else {
        const double two[2] = {7, 8};
        c.send(two, 2, 0, 5);
        c.barrier();
        for (int i = 0; i < 2; ++i) {
          double v = -1;
          c.recv(&v, 1, 0, 5);
          got.push_back(v);
        }
      }
    });
    EXPECT_TRUE(caught) << workers;
    EXPECT_EQ(got, (std::vector<double>{1, 2})) << workers;
  }
}

TEST(Inbox, FlipMatchCountsPerWorldTripleAcrossComms) {
  // FaultPlan flips count matches per world (src, dst, tag), whatever the
  // communicator: the 2nd message 0 -> 1 on tag 3 is the one on the split
  // communicator, and it is the one flipped.
  Cluster cl(2, Machine::unit_test());
  FaultPlan fp;
  fp.flips.push_back(
      {.src = 0, .dst = 1, .tag = 3, .nth_match = 2, .offset = 0, .mask = 1});
  cl.set_fault_plan(fp);
  double first = 0, second = 0;
  cl.run([&](Comm& c) {
    Comm sub = c.split(0, -c.rank());  // reversed: world 0 is sub rank 1
    const double v = 1.0;
    if (c.rank() == 0) {
      c.send(&v, 1, 1, 3);
      sub.send(&v, 1, 0, 3);
    } else {
      c.recv(&first, 1, 0, 3);
      sub.recv(&second, 1, 1, 3);
    }
  });
  double flipped = 1.0;
  unsigned char b[sizeof(double)];
  std::memcpy(b, &flipped, sizeof b);
  b[0] ^= 1;
  std::memcpy(&flipped, b, sizeof flipped);
  EXPECT_EQ(first, 1.0);
  EXPECT_EQ(second, flipped);
}

}  // namespace
}  // namespace ca3dmm::simmpi
