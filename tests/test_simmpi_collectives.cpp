// Collective operations of the simulated runtime against serial oracles:
// data results for every collective, uneven counts, splits, nesting, and
// buffers reused the moment a collective returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm::simmpi {
namespace {

TEST(Collectives, Bcast) {
  Cluster cl(7, Machine::unit_test());
  cl.run([](Comm& c) {
    std::vector<double> buf(5, 0.0);
    if (c.rank() == 3)
      for (int i = 0; i < 5; ++i) buf[static_cast<size_t>(i)] = 10.0 + i;
    c.bcast(buf.data(), 5, 3);
    for (int i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(buf[static_cast<size_t>(i)], 10.0 + i);
  });
}

TEST(Collectives, Allgather) {
  const int P = 6;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    const double mine[2] = {static_cast<double>(c.rank()),
                            static_cast<double>(c.rank() * 10)};
    std::vector<double> all(static_cast<size_t>(2 * P));
    c.allgather(mine, 2, all.data());
    for (int r = 0; r < P; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(2 * r)], r);
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(2 * r + 1)], r * 10);
    }
  });
}

TEST(Collectives, AllgathervUnevenCounts) {
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Rank r contributes r+1 doubles valued 100*r + i.
    const int me = c.rank();
    std::vector<double> mine(static_cast<size_t>(me + 1));
    for (int i = 0; i <= me; ++i)
      mine[static_cast<size_t>(i)] = 100.0 * me + i;
    std::vector<i64> counts;
    i64 total = 0;
    for (int r = 0; r < P; ++r) {
      counts.push_back(static_cast<i64>((r + 1) * sizeof(double)));
      total += r + 1;
    }
    std::vector<double> all(static_cast<size_t>(total));
    c.allgatherv_bytes(mine.data(),
                       static_cast<i64>((me + 1) * sizeof(double)), all.data(),
                       counts);
    i64 off = 0;
    for (int r = 0; r < P; ++r)
      for (int i = 0; i <= r; ++i)
        EXPECT_DOUBLE_EQ(all[static_cast<size_t>(off++)], 100.0 * r + i);
  });
}

TEST(Collectives, ReduceScatterSum) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Segment r has r+1 elements; every rank contributes value (rank+1) to
    // every element, so each reduced element equals P(P+1)/2 = 10.
    std::vector<i64> counts;
    i64 total = 0;
    for (int r = 0; r < P; ++r) {
      counts.push_back(r + 1);
      total += r + 1;
    }
    std::vector<double> sbuf(static_cast<size_t>(total),
                             static_cast<double>(c.rank() + 1));
    std::vector<double> rbuf(static_cast<size_t>(c.rank() + 1), -1.0);
    c.reduce_scatter(sbuf.data(), rbuf.data(), counts);
    for (double v : rbuf) EXPECT_DOUBLE_EQ(v, 10.0);
  });
}

TEST(Collectives, ReduceScatterZeroCount) {
  // A rank may receive nothing (count 0) — used by idle-ish ranks.
  const int P = 3;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<i64> counts{2, 0, 1};
    std::vector<double> sbuf{1, 2, 3};
    std::vector<double> rbuf(3, -1);
    c.reduce_scatter(sbuf.data(), rbuf.data(), counts);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(rbuf[0], 3.0);
      EXPECT_DOUBLE_EQ(rbuf[1], 6.0);
    } else if (c.rank() == 2) {
      EXPECT_DOUBLE_EQ(rbuf[0], 9.0);
    }
  });
}

TEST(Collectives, AllreduceSum) {
  const int P = 9;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<float> s{static_cast<float>(c.rank()), 1.0f};
    std::vector<float> r(2);
    c.allreduce(s.data(), r.data(), 2);
    EXPECT_FLOAT_EQ(r[0], static_cast<float>(P * (P - 1) / 2));
    EXPECT_FLOAT_EQ(r[1], static_cast<float>(P));
  });
}

TEST(Collectives, Alltoallv) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Rank r sends one double (value 100*r + d) to every rank d.
    const int me = c.rank();
    std::vector<double> sbuf(static_cast<size_t>(P));
    std::vector<PeerBlock> sends, recvs;
    for (int d = 0; d < P; ++d) {
      sbuf[static_cast<size_t>(d)] = 100.0 * me + d;
      const i64 at = static_cast<i64>(d * sizeof(double));
      sends.push_back({d, sizeof(double), at});
      recvs.push_back({d, sizeof(double), at});
    }
    std::vector<double> rbuf(static_cast<size_t>(P), -1);
    c.alltoallv_bytes(sbuf.data(), sends, rbuf.data(), recvs);
    for (int s = 0; s < P; ++s)
      EXPECT_DOUBLE_EQ(rbuf[static_cast<size_t>(s)], 100.0 * s + me);
  });
}

TEST(Collectives, SplitColorsAndKeys) {
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Even/odd split with reversed key ordering: the even group is ordered
    // {6,4,2,0} and the odd group {7,5,3,1}.
    Comm sub = c.split(c.rank() % 2, -c.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 4);
    const int top = (c.rank() % 2 == 0) ? 6 : 7;  // world rank of sub rank 0
    EXPECT_EQ(sub.rank(), (top - c.rank()) / 2);
    // A collective on the sub-communicator only involves the subgroup.
    std::vector<double> all(4);
    const double mine = c.rank();
    sub.allgather(&mine, 1, all.data());
    for (int j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(j)],
                       static_cast<double>(top - 2 * j))
          << "j=" << j;
  });
}

TEST(Collectives, SplitUndefinedColor) {
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm sub = c.split(c.rank() < 3 ? 0 : -1, c.rank());
    if (c.rank() < 3) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
      EXPECT_EQ(sub.rank(), c.rank());
    } else {
      EXPECT_FALSE(sub.valid());
    }
  });
}

TEST(Collectives, NestedSplits) {
  // Split a 12-rank world into 2 groups of 6, then each into 3 pairs, and
  // run an allreduce at the innermost level.
  const int P = 12;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm half = c.split(c.rank() / 6, c.rank());
    Comm pair = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(pair.size(), 2);
    double v = 1.0, r = 0.0;
    pair.allreduce(&v, &r, 1);
    EXPECT_DOUBLE_EQ(r, 2.0);
  });
}

TEST(Collectives, ConcurrentSubgroupCollectives) {
  // Different subgroups run independent collectives "simultaneously".
  const int P = 9;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm g = c.split(c.rank() % 3, c.rank());
    double v = c.rank(), sum = 0;
    g.allreduce(&v, &sum, 1);
    double expect = 0;
    for (int r = c.rank() % 3; r < P; r += 3) expect += r;
    EXPECT_DOUBLE_EQ(sum, expect);
  });
}

TEST(Collectives, BarrierCompletes) {
  Cluster cl(16, Machine::unit_test());
  cl.run([](Comm& c) {
    for (int i = 0; i < 5; ++i) c.barrier();
  });
}

// ---- edge cases: empty payloads, degenerate splits, singleton groups ----

TEST(CollectivesEdge, ZeroByteBcast) {
  Cluster cl(4, Machine::unit_test());
  cl.run([](Comm& c) {
    c.bcast_bytes(nullptr, 0, 2);
    EXPECT_GE(c.last_op_cost(), 0.0);
  });
}

TEST(CollectivesEdge, ZeroByteAllgather) {
  Cluster cl(4, Machine::unit_test());
  cl.run([](Comm& c) { c.allgather_bytes(nullptr, 0, nullptr); });
}

TEST(CollectivesEdge, ZeroCountAllreduce) {
  Cluster cl(3, Machine::unit_test());
  cl.run([](Comm& c) {
    c.allreduce_sum(nullptr, nullptr, 0, Dtype::kF64);
  });
}

TEST(CollectivesEdge, AlltoallvZeroCountsForSomePeers) {
  // Rank r sends one double to rank 0 only; everyone else's exchange with r
  // is empty. Rank 0 must receive P values, the others nothing.
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    const int me = c.rank();
    const double mine = 100.0 + me;
    const std::vector<PeerBlock> sends{{0, sizeof(double), 0}};
    std::vector<PeerBlock> recvs;
    if (me == 0)
      for (int s = 0; s < P; ++s)
        recvs.push_back(
            {s, sizeof(double), static_cast<i64>(s * sizeof(double))});
    std::vector<double> rbuf(static_cast<size_t>(P), -1.0);
    c.alltoallv_bytes(&mine, sends, rbuf.data(), recvs);
    if (me == 0)
      for (int s = 0; s < P; ++s)
        EXPECT_DOUBLE_EQ(rbuf[static_cast<size_t>(s)], 100.0 + s);
    else
      for (double v : rbuf) EXPECT_DOUBLE_EQ(v, -1.0);
  });
}

/// One alltoallv over P ranks where rank r posts `lists(r)` (sends,
/// receives; each rank's send buffer holds 4 doubles). Returns each rank's
/// error message ("" = none) and checks that a failed call left the receive
/// buffer untouched.
using A2aLists = std::pair<std::vector<PeerBlock>, std::vector<PeerBlock>>;
std::vector<std::string> alltoallv_errors(
    int P, const std::function<A2aLists(int)>& lists) {
  Cluster cl(P, Machine::unit_test());
  std::vector<std::string> errors(static_cast<size_t>(P));
  cl.run([&](Comm& c) {
    const auto [sends, recvs] = lists(c.rank());
    const std::vector<double> sbuf(4, 1.0 + c.rank());
    std::vector<double> rbuf(static_cast<size_t>(4 * P), -1.0);
    try {
      c.alltoallv_bytes(sbuf.data(), sends, rbuf.data(), recvs);
    } catch (const Error& e) {
      errors[static_cast<size_t>(c.rank())] = e.what();
      for (double v : rbuf) EXPECT_DOUBLE_EQ(v, -1.0);
    }
  });
  return errors;
}

/// Every rank sends one double to every rank, except where `tweak` edits
/// rank r's lists.
std::function<A2aLists(int)> all_pairs(
    int P, std::function<void(int, A2aLists&)> tweak) {
  return [=](int r) {
    A2aLists l;
    for (int d = 0; d < P; ++d) {
      l.first.push_back({d, sizeof(double), 0});
      l.second.push_back({d, sizeof(double), 8 * d});
    }
    tweak(r, l);
    return l;
  };
}

void expect_same_error_everywhere(const std::vector<std::string>& errors,
                                  const std::string& want) {
  for (const std::string& e : errors) {
    EXPECT_EQ(e, errors[0]);
    EXPECT_NE(e.find(want), std::string::npos) << e;
  }
}

TEST(AlltoallvErrors, SendLargerThanPeerExpects) {
  const auto lists = all_pairs(4, [](int r, A2aLists& l) {
    if (r == 1) l.first[2].bytes = 16;  // rank 2 expects 8
  });
  expect_same_error_everywhere(
      alltoallv_errors(4, lists),
      "alltoallv count mismatch: rank 1 sends 16 bytes to rank 2, which "
      "expects 8");
}

TEST(AlltoallvErrors, ExpectedBytesNobodySends) {
  const auto lists = all_pairs(4, [](int r, A2aLists& l) {
    if (r == 0) l.first.erase(l.first.begin() + 3);  // nothing for rank 3
  });
  expect_same_error_everywhere(
      alltoallv_errors(4, lists),
      "alltoallv count mismatch: rank 0 sends 0 bytes to rank 3, which "
      "expects 8");
}

TEST(AlltoallvErrors, ReportsFirstMismatchedPairInRankOrder) {
  // A send mismatch at 2->1 and an unmatched receive at 0->3: the error
  // names the pair that comes first in (source, destination) order.
  const auto lists = all_pairs(4, [](int r, A2aLists& l) {
    if (r == 2) l.first[1].bytes = 16;
    if (r == 0) l.first.erase(l.first.begin() + 3);
  });
  expect_same_error_everywhere(
      alltoallv_errors(4, lists),
      "alltoallv count mismatch: rank 0 sends 0 bytes to rank 3, which "
      "expects 8");
}

TEST(AlltoallvErrors, UnsortedListIsRejected) {
  const auto lists = all_pairs(3, [](int r, A2aLists& l) {
    if (r == 1) std::swap(l.first[0], l.first[1]);
  });
  Cluster cl(3, Machine::unit_test());
  EXPECT_THROW(cl.run([&](Comm& c) {
                 const auto [sends, recvs] = lists(c.rank());
                 double sbuf[4] = {}, rbuf[12] = {};
                 c.alltoallv_bytes(sbuf, sends, rbuf, recvs);
               }),
               Error);
}

TEST(AlltoallvErrors, SelfOnlySingleRankAndZeroPeerCallsSucceed) {
  // Self only: each rank's one entry is itself.
  const auto self = [](int r) {
    return A2aLists{{{r, sizeof(double), 0}}, {{r, sizeof(double), 0}}};
  };
  for (const std::string& e : alltoallv_errors(5, self)) EXPECT_EQ(e, "");
  for (const std::string& e : alltoallv_errors(1, self)) EXPECT_EQ(e, "");
  // Zero peers: empty lists on every rank move nothing.
  const auto none = [](int) { return A2aLists{}; };
  for (const std::string& e : alltoallv_errors(5, none)) EXPECT_EQ(e, "");
  Cluster cl(3, Machine::unit_test());
  cl.run([](Comm& c) {
    const double mine = 10.0 + c.rank();
    double got = -1;
    const std::vector<PeerBlock> self{{c.rank(), sizeof(double), 0}};
    c.alltoallv_bytes(&mine, self, &got, self);
    EXPECT_DOUBLE_EQ(got, mine);
    c.alltoallv_bytes(nullptr, {}, nullptr, {});
  });
}

TEST(CollectivesEdge, SplitAllNegativeColors) {
  // Every rank passes MPI_UNDEFINED: all get an invalid communicator and
  // the world communicator stays usable.
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([](Comm& c) {
    Comm sub = c.split(-1, c.rank());
    EXPECT_FALSE(sub.valid());
    c.barrier();
  });
}

TEST(CollectivesEdge, SingleRankCommunicatorAllCollectives) {
  // Each rank splits into its own singleton group and runs every collective
  // on it; all must complete and behave as identities.
  const int P = 3;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm solo = c.split(c.rank(), 0);
    ASSERT_TRUE(solo.valid());
    ASSERT_EQ(solo.size(), 1);
    solo.barrier();
    double x = 7.5;
    solo.bcast(&x, 1, 0);
    EXPECT_DOUBLE_EQ(x, 7.5);
    double g = -1;
    solo.allgather(&x, 1, &g);
    EXPECT_DOUBLE_EQ(g, 7.5);
    const std::vector<i64> counts{static_cast<i64>(sizeof(double))};
    double gv = -1;
    solo.allgatherv_bytes(&x, static_cast<i64>(sizeof(double)), &gv, counts);
    EXPECT_DOUBLE_EQ(gv, 7.5);
    const std::vector<i64> rs_counts{2};
    const double sb[2] = {1.5, 2.5};
    double rb[2] = {-1, -1};
    solo.reduce_scatter(sb, rb, rs_counts);
    EXPECT_DOUBLE_EQ(rb[0], 1.5);
    EXPECT_DOUBLE_EQ(rb[1], 2.5);
    double ar = -1;
    solo.allreduce(&x, &ar, 1);
    EXPECT_DOUBLE_EQ(ar, 7.5);
    const std::vector<PeerBlock> self{{0, sizeof(double), 0}};
    double a2a = -1;
    solo.alltoallv_bytes(&x, self, &a2a, self);
    EXPECT_DOUBLE_EQ(a2a, 7.5);
    Comm sub = solo.split(0, 0);
    EXPECT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 1);
  });
}

TEST(CollectivesEdge, SingleRankCluster) {
  Cluster cl(1, Machine::unit_test());
  cl.run([](Comm& c) {
    c.barrier();
    double x = 3.0, r = 0.0;
    c.allreduce(&x, &r, 1);
    EXPECT_DOUBLE_EQ(r, 3.0);
  });
}

// A collective completes for every member at once: the last arriver moves
// every member's bytes before it releases the group, so a member may
// overwrite or free its buffers as soon as its call returns. Every rank
// poisons its send and receive buffers right after each call and then
// frees them; a peer still reading them would get NaNs, and one still
// writing them would touch freed memory (caught under ASan). Four workers,
// so members really run concurrently; the CI flake gate repeats it.
TEST(CollectiveLifetime, BuffersReusableOnReturn) {
  const int P = 7;
  const int kRounds = 12;
  using Buf = std::vector<double>;
  const auto at = [](auto& v, i64 i) -> auto& {
    return v[static_cast<size_t>(i)];
  };
  const auto bytes = [](i64 n) { return n * static_cast<i64>(sizeof(double)); };
  Cluster cl(P, Machine::unit_test());
  cl.set_fiber_workers(4);
  cl.run([&](Comm& c) {
    const int me = c.rank();
    for (int round = 0; round < kRounds; ++round) {
      // Integer-valued entries: every sum below is exact in any order.
      const auto val = [&](int rank, i64 i) {
        return 1000.0 * round + 37.0 * rank + static_cast<double>(i);
      };
      const auto sum_over_ranks = [&](i64 i) {
        double s = 0;
        for (int r = 0; r < P; ++r) s += val(r, i);
        return s;
      };
      // A buffer of n entries val(rank, i0 + i), or of n entries -1.
      const auto make = [&](i64 n, int rank = -1, i64 i0 = 0) {
        Buf b(static_cast<size_t>(n), -1);
        if (rank >= 0)
          for (i64 i = 0; i < n; ++i) at(b, i) = val(rank, i0 + i);
        return b;
      };
      Buf got;
      // Takes the result, then poisons and frees both buffers.
      const auto take = [&](Buf& sbuf, Buf& rbuf) {
        got = rbuf;
        for (Buf* b : {&sbuf, &rbuf}) {
          std::fill(b->begin(), b->end(),
                    std::numeric_limits<double>::quiet_NaN());
          Buf().swap(*b);
        }
      };
      const i64 n = 1 + round % 4;
      {  // bcast from a rotating root
        const int root = round % P;
        Buf none, buf = make(n, me == root ? root : -1);
        c.bcast(buf.data(), n, root);
        take(none, buf);
        for (i64 i = 0; i < n; ++i) EXPECT_EQ(at(got, i), val(root, i));
      }
      {  // allgather
        Buf sbuf = make(n, me), rbuf = make(n * P);
        c.allgather(sbuf.data(), n, rbuf.data());
        take(sbuf, rbuf);
        for (int r = 0; r < P; ++r)
          for (i64 i = 0; i < n; ++i) EXPECT_EQ(at(got, r * n + i), val(r, i));
      }
      // Uneven per-rank element counts, some zero.
      std::vector<i64> cnt, counts;
      for (int r = 0; r < P; ++r) {
        cnt.push_back((r + round) % 3);
        counts.push_back(bytes(cnt.back()));
      }
      const i64 total = std::accumulate(cnt.begin(), cnt.end(), i64{0});
      const i64 mine = at(cnt, me);
      {  // allgatherv
        Buf sbuf = make(mine, me), rbuf = make(total);
        c.allgatherv_bytes(sbuf.data(), bytes(mine), rbuf.data(), counts);
        take(sbuf, rbuf);
        i64 off = 0;
        for (int r = 0; r < P; ++r)
          for (i64 i = 0; i < at(cnt, r); ++i)
            EXPECT_EQ(at(got, off++), val(r, i));
      }
      {  // reduce-scatter
        Buf sbuf = make(total, me), rbuf = make(mine);
        c.reduce_scatter(sbuf.data(), rbuf.data(), cnt);
        take(sbuf, rbuf);
        const i64 off = std::accumulate(cnt.begin(), cnt.begin() + me, i64{0});
        for (i64 i = 0; i < mine; ++i)
          EXPECT_EQ(at(got, i), sum_over_ranks(off + i));
      }
      {  // allreduce
        const i64 m = 3 * n + 1;
        Buf sbuf = make(m, me), rbuf = make(m);
        c.allreduce(sbuf.data(), rbuf.data(), m);
        take(sbuf, rbuf);
        for (i64 i = 0; i < m; ++i) EXPECT_EQ(at(got, i), sum_over_ranks(i));
      }
      {  // alltoallv: src sends k(src, dst) entries val(src, 100 dst + i)
        const auto k = [&](int src, int dst) {
          return i64{(src + dst + round) % 3};
        };
        std::vector<PeerBlock> sends, recvs;
        Buf sbuf;
        i64 rn = 0;
        for (int d = 0; d < P; ++d) {
          sends.push_back(
              {d, bytes(k(me, d)), bytes(static_cast<i64>(sbuf.size()))});
          const Buf part = make(k(me, d), me, 100 * d);
          sbuf.insert(sbuf.end(), part.begin(), part.end());
          recvs.push_back({d, bytes(k(d, me)), bytes(rn)});
          rn += k(d, me);
        }
        Buf rbuf = make(rn);
        c.alltoallv_bytes(sbuf.data(), sends, rbuf.data(), recvs);
        take(sbuf, rbuf);
        i64 off = 0;
        for (int s = 0; s < P; ++s)
          for (i64 i = 0; i < k(s, me); ++i)
            EXPECT_EQ(at(got, off++), val(s, 100 * me + i));
      }
    }
  });
}

}  // namespace
}  // namespace ca3dmm::simmpi
