// Point-to-point semantics of the simulated message-passing runtime, whose
// only p2p operation is sendrecv: (src, dst, tag) matching, rendezvous
// progress, ring shifts, communicator isolation, and the per-rank inbox
// that holds the channels (slot recycling, both delivery orders, unwinding
// sendrecv records, fault-plan flip counting).
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
  // A value goes to rank 1 and comes back incremented; each message is one
  // half of a sendrecv whose other half is empty.
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    double x = 0;
    if (c.rank() == 0) {
      x = 42.0;
      c.sendrecv_bytes(&x, sizeof x, 1, nullptr, 0, 1, 0);
      c.sendrecv_bytes(nullptr, 0, 1, &x, sizeof x, 1, 1);
      EXPECT_DOUBLE_EQ(x, 43.0);
    } else {
      c.sendrecv_bytes(nullptr, 0, 0, &x, sizeof x, 0, 0);
      EXPECT_DOUBLE_EQ(x, 42.0);
      x += 1.0;
      c.sendrecv_bytes(&x, sizeof x, 0, nullptr, 0, 0, 1);
    }
  });
}

TEST(P2P, TagMatching) {
  // Consecutive exchanges on different tags each deliver their own payload,
  // on one worker and on four.
  for (const int workers : {1, 4}) {
    Cluster cl(2, Machine::unit_test());
    cl.set_fiber_workers(workers);
    cl.run([](Comm& c) {
      const int peer = 1 - c.rank();
      for (const int tag : {7, 3}) {
        const double v = 10.0 * c.rank() + tag;
        double got = -1;
        c.sendrecv(&v, 1, peer, &got, 1, peer, tag);
        EXPECT_DOUBLE_EQ(got, 10.0 * peer + tag);
      }
    });
  }
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
  // A split communicator's channels are separate from the world's of the
  // same (src, dst, tag): exchanges on each deliver their own payload, and
  // a world send never satisfies a receive on the split communicator — the
  // two ranks deadlock, and the watchdog reports it.
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    Comm sub = c.split(0, c.rank());
    const int peer = 1 - c.rank();
    const double a = 10.0 + c.rank(), b = 20.0 + c.rank();
    double got_a = 0, got_b = 0;
    c.sendrecv(&a, 1, peer, &got_a, 1, peer, 0);
    sub.sendrecv(&b, 1, peer, &got_b, 1, peer, 0);
    EXPECT_DOUBLE_EQ(got_a, 10.0 + peer);
    EXPECT_DOUBLE_EQ(got_b, 20.0 + peer);
  });
  std::string msg;
  try {
    cl.run([](Comm& c) {
      Comm sub = c.split(0, c.rank());
      Comm& mine = c.rank() == 0 ? c : sub;
      double v = 1, got = 0;
      mine.sendrecv(&v, 1, 1 - c.rank(), &got, 1, 1 - c.rank(), 0);
    });
  } catch (const Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
}

TEST(P2P, ZeroByteMessage) {
  Cluster cl(2, Machine::unit_test());
  cl.run([](Comm& c) {
    c.sendrecv_bytes(nullptr, 0, 1 - c.rank(), nullptr, 0, 1 - c.rank(), 0);
  });
}

TEST(P2P, LargePayloadIntegrity) {
  const i64 n = 100000;
  Cluster cl(2, Machine::unit_test());
  cl.run([&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<double> send(static_cast<size_t>(n)), recv(send.size());
    std::iota(send.begin(), send.end(), 1e6 * c.rank());
    c.sendrecv(send.data(), n, peer, recv.data(), n, peer, 0);
    for (i64 i = 0; i < n; i += 9999)
      ASSERT_DOUBLE_EQ(recv[static_cast<size_t>(i)], 1e6 * peer + i);
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
  // 10k distinct tags used in turn on one pair. A slot whose pending send,
  // posted recv and wait list are all empty is recycled, so the inbox holds
  // only the channels in flight, not one slot per tag ever used.
  constexpr int kTags = 10000;
  for (const int workers : {1, 4}) {
    Cluster cl(2, Machine::unit_test());
    cl.set_fiber_workers(workers);
    cl.run([](Comm& c) {
      const int peer = 1 - c.rank();
      for (int t = 0; t < kTags; ++t) {
        double v = t, got = -1;
        c.sendrecv(&v, 1, peer, &got, 1, peer, t);
        ASSERT_EQ(got, v);
      }
    });
    EXPECT_GE(cl.host_profile().inbox_slots_peak, 1) << workers;
    EXPECT_LE(cl.host_profile().inbox_slots_peak, 4) << workers;
  }
}

TEST(Inbox, SendrecvTakesBothDeliveryOrders) {
  // One worker starts rank 0 first: its send is left pending (rank 1 has
  // posted nothing) and it parks with its recv posted. Rank 1 then delivers
  // into rank 0's posted buffer and pulls rank 0's pending send. Each
  // payload is copied once; both ranks leave at the same virtual time.
  Cluster cl(2, Machine::unit_test());
  cl.set_fiber_workers(1);
  cl.run([](Comm& c) {
    const int peer = 1 - c.rank();
    const double v = c.rank();
    double got = -1;
    c.sendrecv(&v, 1, peer, &got, 1, peer, 0);
    EXPECT_EQ(got, peer);
  });
  EXPECT_EQ(cl.stats(0).p2p_zero_copy, 1);  // delivered into rank 0's recv
  EXPECT_EQ(cl.stats(1).p2p_zero_copy, 0);  // rank 1 pulled its message
  EXPECT_EQ(cl.host_profile().zero_copy_bytes, 2 * 8);
  EXPECT_EQ(cl.stats(0).vtime, cl.stats(1).vtime);
}

TEST(Inbox, UnwindingSendrecvClearsItsPendingRecord) {
  // Rank 0's sendrecv sends to rank 1 on (0 -> 1, tag 5), but its receive
  // half fails (rank 1 sends 2 doubles, rank 0 posted 1) while its send is
  // still pending: rank 1 receives from rank 2 meanwhile, not from rank 0.
  // The sendrecv must clear the record as it unwinds. Rank 0 then takes
  // rank 1's message (and feeds rank 2), and a last exchange between ranks
  // 0 and 1 on the same channel delivers the new payload, not the dead one.
  for (const int workers : {1, 4}) {
    Cluster cl(3, Machine::unit_test());
    cl.set_fiber_workers(workers);
    bool caught = false;
    double big[2] = {0, 0}, from2 = 0, to2 = 0, last = 0;
    cl.run([&](Comm& c) {
      if (c.rank() == 0) {
        const double dead = 99, fed = 3, fresh = 4;
        double small = 0, back = 0;
        try {
          c.sendrecv(&dead, 1, 1, &small, 1, 1, 5);
        } catch (const Error& e) {
          caught = std::string(e.what()).find("recv size mismatch") !=
                   std::string::npos;
        }
        c.sendrecv(&fed, 1, 2, big, 2, 1, 5);
        c.sendrecv(&fresh, 1, 1, &back, 1, 1, 5);
      } else if (c.rank() == 1) {
        const double two[2] = {7, 8}, six = 6;
        c.sendrecv(two, 2, 0, &from2, 1, 2, 5);
        c.sendrecv(&six, 1, 0, &last, 1, 0, 5);
      } else {
        const double v = 2;
        c.sendrecv(&v, 1, 1, &to2, 1, 0, 5);
      }
    });
    EXPECT_TRUE(caught) << workers;
    EXPECT_EQ(big[0], 7) << workers;
    EXPECT_EQ(big[1], 8) << workers;
    EXPECT_EQ(from2, 2) << workers;
    EXPECT_EQ(to2, 3) << workers;
    EXPECT_EQ(last, 4) << workers;
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
    double x = 0, y = 0;
    c.sendrecv(&v, 1, 1 - c.rank(), &x, 1, 1 - c.rank(), 3);
    sub.sendrecv(&v, 1, 1 - sub.rank(), &y, 1, 1 - sub.rank(), 3);
    if (c.rank() == 1) {
      first = x;
      second = y;
    } else {  // messages 1 -> 0 match no flip
      EXPECT_EQ(x, 1.0);
      EXPECT_EQ(y, 1.0);
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
