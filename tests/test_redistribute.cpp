// Redistribution engine: conversion between arbitrary layout pairs,
// transpose-on-the-fly, idle ranks, volume accounting, and the indexed peer
// search against an all-pairs oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cosma_like.hpp"
#include "baselines/p25d.hpp"
#include "baselines/summa.hpp"
#include "common/rng.hpp"
#include "core/ca3dmm.hpp"
#include "core/plan.hpp"
#include "layout/redistribute.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

/// Checks this rank's local buffer under `layout` against the global matrix,
/// optionally with transposed coordinates (local (i,j) == global (j,i)).
void check_local(const BlockLayout& layout, int rank, std::uint64_t seed,
                 const std::vector<double>& buf, bool transposed) {
  ASSERT_EQ(buf.size(), static_cast<size_t>(layout.local_size(rank)));
  i64 pos = 0;
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j) {
        const double expect = transposed ? matrix_entry<double>(seed, j, i)
                                         : matrix_entry<double>(seed, i, j);
        ASSERT_DOUBLE_EQ(buf[static_cast<size_t>(pos++)], expect)
            << "rank " << rank << " (" << i << "," << j << ")";
      }
}

void roundtrip(const BlockLayout& src, const BlockLayout& dst, int P,
               bool transpose = false) {
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(dst.local_size(c.rank())));
    fill_local(src, c.rank(), 42, in);
    redistribute<double>(c, src, in.data(), dst, out.data(), transpose);
    check_local(dst, c.rank(), 42, out, transpose);
  });
}

TEST(Redistribute, Row1DToCol1D) {
  roundtrip(BlockLayout::row_1d(13, 9, 4), BlockLayout::col_1d(13, 9, 4), 4);
}

TEST(Redistribute, Col1DToGrid2D) {
  roundtrip(BlockLayout::col_1d(12, 10, 6), BlockLayout::grid_2d(12, 10, 2, 3),
            6);
}

TEST(Redistribute, Grid2DToGrid2DDifferentShape) {
  roundtrip(BlockLayout::grid_2d(16, 16, 4, 2),
            BlockLayout::grid_2d(16, 16, 2, 4), 8);
}

TEST(Redistribute, GatherToSingleRank) {
  roundtrip(BlockLayout::grid_2d(7, 11, 3, 2), BlockLayout::single(7, 11, 5, 6),
            6);
}

TEST(Redistribute, ScatterFromSingleRank) {
  roundtrip(BlockLayout::single(9, 9, 0, 5), BlockLayout::row_1d(9, 9, 5), 5);
}

TEST(Redistribute, IdentityLayout) {
  roundtrip(BlockLayout::row_1d(8, 8, 4), BlockLayout::row_1d(8, 8, 4), 4);
}

TEST(Redistribute, TransposeRow1DToRow1D) {
  // A (5 x 8) row-partitioned -> A^T (8 x 5) row-partitioned.
  roundtrip(BlockLayout::row_1d(5, 8, 4), BlockLayout::row_1d(8, 5, 4), 4,
            /*transpose=*/true);
}

TEST(Redistribute, TransposeGrid2D) {
  roundtrip(BlockLayout::grid_2d(6, 10, 2, 2),
            BlockLayout::grid_2d(10, 6, 2, 2), 4, /*transpose=*/true);
}

TEST(Redistribute, IdleRanksParticipate) {
  // Layouts span 6 ranks but ranks 4, 5 own nothing in either layout.
  auto src = BlockLayout::row_1d(8, 8, 6);  // blocks sized 2,2,1,1,1,1
  BlockLayout dst(8, 8, 6);
  dst.add_rect(0, {{0, 8}, {0, 4}});
  dst.add_rect(1, {{0, 8}, {4, 8}});
  ASSERT_TRUE(dst.covers_exactly());
  roundtrip(src, dst, 6);
}

TEST(Redistribute, MultiRectDestination) {
  BlockLayout dst(6, 6, 3);
  dst.add_rect(0, {{0, 3}, {0, 3}});
  dst.add_rect(0, {{3, 6}, {3, 6}});
  dst.add_rect(1, {{0, 3}, {3, 6}});
  dst.add_rect(2, {{3, 6}, {0, 3}});
  ASSERT_TRUE(dst.covers_exactly());
  roundtrip(BlockLayout::col_1d(6, 6, 3), dst, 3);
}

TEST(Redistribute, RandomizedLayoutPairsProperty) {
  // Property sweep: random grid shapes on both sides must round-trip.
  Rng rng(7);
  for (int iter = 0; iter < 12; ++iter) {
    const int P = static_cast<int>(rng.uniform(2, 8));
    const i64 m = rng.uniform(1, 20), n = rng.uniform(1, 20);
    auto pick = [&](i64 rows, i64 cols) {
      switch (rng.uniform(0, 3)) {
        case 0: return BlockLayout::row_1d(rows, cols, P);
        case 1: return BlockLayout::col_1d(rows, cols, P);
        case 2: {
          // Random divisor of P so the grid spans exactly P ranks.
          std::vector<int> divs;
          for (int d = 1; d <= P; ++d)
            if (P % d == 0) divs.push_back(d);
          const int pr = divs[static_cast<size_t>(
              rng.uniform(0, static_cast<i64>(divs.size()) - 1))];
          return BlockLayout::grid_2d(rows, cols, pr, P / pr,
                                      rng.uniform(0, 1) == 1);
        }
        default:
          return BlockLayout::single(rows, cols,
                                     static_cast<int>(rng.uniform(0, P - 1)), P);
      }
    };
    auto src = pick(m, n);
    const bool transpose = rng.uniform(0, 1) == 1;
    auto dst = transpose ? pick(n, m) : pick(m, n);
    // Grid factory may span fewer ranks than P owns; ensure full coverage.
    ASSERT_TRUE(src.covers_exactly());
    ASSERT_TRUE(dst.covers_exactly());
    roundtrip(src, dst, P, transpose);
  }
}

TEST(Redistribute, BlockCyclicToNativeStyle) {
  // ScaLAPACK block-cyclic -> contiguous 2-D grid and back (the conversion
  // path the paper's §V discusses for real applications).
  const auto bc = BlockLayout::block_cyclic(18, 14, 2, 2, 3, 2);
  const auto grid = BlockLayout::grid_2d(18, 14, 2, 2);
  roundtrip(bc, grid, 4);
  roundtrip(grid, bc, 4);
}

TEST(Redistribute, BlockCyclicTranspose) {
  const auto bc = BlockLayout::block_cyclic(10, 6, 2, 3, 2, 2);
  const auto dst = BlockLayout::block_cyclic(6, 10, 3, 2, 2, 2);
  roundtrip(bc, dst, 6, /*transpose=*/true);
}

TEST(Redistribute, VolumeExcludesSelfTraffic) {
  auto l = BlockLayout::row_1d(8, 8, 4);
  auto v = redistribution_volume(l, l, false, 8);
  EXPECT_EQ(v.max_send_bytes, 0);
  EXPECT_EQ(v.max_recv_bytes, 0);
}

TEST(Redistribute, VolumeRowToCol) {
  // 4x4 over 2 ranks: row blocks 2x4 -> col blocks 4x2. Each rank keeps a
  // 2x2 quadrant and ships a 2x2 quadrant: 4 elements * 8 bytes.
  auto v = redistribution_volume(BlockLayout::row_1d(4, 4, 2),
                                 BlockLayout::col_1d(4, 4, 2), false, 8);
  EXPECT_EQ(v.max_send_bytes, 32);
  EXPECT_EQ(v.max_recv_bytes, 32);
}

/// The executed redistribution must agree with its analytic prediction
/// *exactly*: every rank's per-phase sent/received bytes equal the
/// redistribution_volume per-rank vectors, and every rank's charged virtual
/// time equals t_alltoallv_machine of the predicted worst off-self volume
/// (all ranks enter the all-to-all at clock 0, so exit = entry + cost).
void check_volume_prediction(const BlockLayout& src, const BlockLayout& dst,
                             int P, bool transpose, const Machine& mach) {
  const RedistVolume v =
      redistribution_volume(src, dst, transpose, sizeof(double));
  ASSERT_EQ(static_cast<int>(v.send_bytes.size()), P);
  ASSERT_EQ(static_cast<int>(v.recv_bytes.size()), P);

  Cluster cl(P, mach);
  cl.run([&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(dst.local_size(c.rank())));
    fill_local(src, c.rank(), 11, in);
    redistribute<double>(c, src, in.data(), dst, out.data(), transpose);
  });

  std::vector<int> members(static_cast<size_t>(P));
  for (int r = 0; r < P; ++r) members[static_cast<size_t>(r)] = r;
  const simmpi::GroupProfile prof =
      simmpi::GroupProfile::from_world_ranks(mach, members);
  const double expect_t = simmpi::t_alltoallv_machine(
      mach, simmpi::group_link(mach, prof),
      static_cast<double>(std::max(v.max_send_bytes, v.max_recv_bytes)), P,
      prof.single_node);

  for (int r = 0; r < P; ++r) {
    const simmpi::RankStats& s = cl.stats(r);
    EXPECT_EQ(s.bytes_sent(simmpi::Phase::kMisc),
              static_cast<double>(v.send_bytes[static_cast<size_t>(r)]))
        << "rank " << r;
    EXPECT_EQ(s.bytes_recvd(simmpi::Phase::kMisc),
              static_cast<double>(v.recv_bytes[static_cast<size_t>(r)]))
        << "rank " << r;
    EXPECT_EQ(s.vtime, expect_t) << "rank " << r;
  }
}

TEST(Redistribute, ExecutedMatchesVolumePredictionExactly) {
  check_volume_prediction(BlockLayout::grid_2d(13, 9, 3, 2),
                          BlockLayout::col_1d(13, 9, 6), 6, false,
                          Machine::unit_test());
}

TEST(Redistribute, ExecutedMatchesVolumePredictionMultiNode) {
  // Phoenix-like parameters with 4 ranks per node: P=8 spans two nodes, so
  // the all-to-all pays the congestion-adjusted multi-node rate and the
  // comparison pins that path too.
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  check_volume_prediction(BlockLayout::grid_2d(16, 16, 4, 2),
                          BlockLayout::grid_2d(16, 16, 2, 4), 8, false, mach);
}

TEST(Redistribute, ExecutedMatchesVolumePredictionTranspose) {
  check_volume_prediction(BlockLayout::grid_2d(6, 10, 2, 2),
                          BlockLayout::grid_2d(10, 6, 2, 2), 4, true,
                          Machine::unit_test());
}

// ---- indexed peer search vs. the all-pairs oracle ----

/// The all-pairs enumeration redistribute ran before layouts were indexed:
/// every peer, every (source rect, destination rect) pair, nonempty
/// overlaps only. Kept here as the oracle.
std::vector<RedistSegment> dense_segments(const BlockLayout& src,
                                          const BlockLayout& dst,
                                          bool transpose, int me,
                                          bool sending) {
  std::vector<RedistSegment> out;
  for (int peer = 0; peer < src.nranks(); ++peer) {
    const auto srects = src.rects_of(sending ? me : peer);
    const auto drects = dst.rects_of(sending ? peer : me);
    for (size_t si = 0; si < srects.size(); ++si)
      for (size_t di = 0; di < drects.size(); ++di) {
        const Rect& d = drects[di];
        const Rect inter =
            intersect(srects[si], transpose ? Rect{d.c, d.r} : d);
        if (!inter.empty()) out.push_back(RedistSegment{peer, si, di, inter});
      }
  }
  return out;
}

/// redistribution_volume as the all-pairs loop over (source, destination).
/// A conversion that leaves every rank its own rects in order, untransposed,
/// is a local copy: it stages nothing.
RedistVolume dense_volume(const BlockLayout& src, const BlockLayout& dst,
                          bool transpose, i64 esize) {
  const size_t P = static_cast<size_t>(src.nranks());
  RedistVolume v;
  v.identity = !transpose && src.rows() == dst.rows() &&
               src.cols() == dst.cols();
  for (size_t r = 0; v.identity && r < P; ++r)
    v.identity = std::ranges::equal(src.rects_of(static_cast<int>(r)),
                                     dst.rects_of(static_cast<int>(r)));
  v.send_bytes.assign(P, 0);
  v.recv_bytes.assign(P, 0);
  v.send_staging_bytes.assign(P, 0);
  v.recv_staging_bytes.assign(P, 0);
  for (size_t s = 0; s < P; ++s)
    for (const RedistSegment& sg :
         dense_segments(src, dst, transpose, static_cast<int>(s), true)) {
      const size_t d = static_cast<size_t>(sg.peer);
      const i64 bytes = sg.r.size() * esize;
      if (!v.identity) {
        v.send_staging_bytes[s] += bytes;
        v.recv_staging_bytes[d] += bytes;
      }
      if (s == d) continue;
      v.send_bytes[s] += bytes;
      v.recv_bytes[d] += bytes;
    }
  for (size_t r = 0; r < P; ++r) {
    v.max_send_bytes = std::max(v.max_send_bytes, v.send_bytes[r]);
    v.max_recv_bytes = std::max(v.max_recv_bytes, v.recv_bytes[r]);
  }
  return v;
}

/// Every rank's send and receive segments — hence its peer lists, per-peer
/// byte counts and packing order — and every RedistVolume field equal the
/// oracle's.
void expect_matches_oracle(const BlockLayout& src, const BlockLayout& dst,
                           bool transpose, const std::string& what) {
  SCOPED_TRACE(what + (transpose ? " (transposed)" : ""));
  for (int me = 0; me < src.nranks(); ++me)
    for (const bool sending : {true, false}) {
      const auto got =
          redistribution_segments(src, dst, transpose, me, sending);
      const auto want = dense_segments(src, dst, transpose, me, sending);
      ASSERT_EQ(got.size(), want.size()) << "rank " << me;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].peer, want[i].peer) << "rank " << me << " seg " << i;
        EXPECT_EQ(got[i].si, want[i].si) << "rank " << me << " seg " << i;
        EXPECT_EQ(got[i].di, want[i].di) << "rank " << me << " seg " << i;
        EXPECT_EQ(got[i].r, want[i].r) << "rank " << me << " seg " << i;
      }
    }
  const RedistVolume got = redistribution_volume(src, dst, transpose, 8);
  const RedistVolume want = dense_volume(src, dst, transpose, 8);
  EXPECT_EQ(got.identity, want.identity);
  EXPECT_EQ(got.max_send_bytes, want.max_send_bytes);
  EXPECT_EQ(got.max_recv_bytes, want.max_recv_bytes);
  EXPECT_EQ(got.send_bytes, want.send_bytes);
  EXPECT_EQ(got.recv_bytes, want.recv_bytes);
  EXPECT_EQ(got.send_staging_bytes, want.send_staging_bytes);
  EXPECT_EQ(got.recv_staging_bytes, want.recv_staging_bytes);
}

/// A random divisor of P.
int divisor_of(Rng& rng, int P) {
  std::vector<int> divs;
  for (int d = 1; d <= P; ++d)
    if (P % d == 0) divs.push_back(d);
  return divs[static_cast<size_t>(
      rng.uniform(0, static_cast<i64>(divs.size()) - 1))];
}

/// One of a plan's native layouts with `rows` x `cols` dimensions: A
/// (m x k), B (k x n) or C (m x n), the free dimension drawn at random.
template <typename Make>
BlockLayout plan_native(Rng& rng, i64 rows, i64 cols, Make&& make) {
  const i64 free = rng.uniform(1, 60);
  switch (rng.uniform(0, 2)) {
    case 0: return make(rows, free, cols).a_native();
    case 1: return make(free, cols, rows).b_native();
    default: return make(rows, cols, free).c_native();
  }
}

/// Random rects from repeated guillotine cuts, dealt to random ranks: ranks
/// own zero to many rects, and rects span several row bands of the index.
BlockLayout guillotine(Rng& rng, i64 rows, i64 cols, int P) {
  std::vector<Rect> rects{Rect{{0, rows}, {0, cols}}};
  for (int cut = 0; cut < 2 * P; ++cut) {
    Rect& r = rects[static_cast<size_t>(
        rng.uniform(0, static_cast<i64>(rects.size()) - 1))];
    const bool along_rows = rng.uniform(0, 1) == 1;
    const Range span = along_rows ? r.r : r.c;
    if (span.size() < 2) continue;
    const i64 at = rng.uniform(span.lo + 1, span.hi - 1);
    Rect other = r;
    (along_rows ? r.r.hi : r.c.hi) = at;
    (along_rows ? other.r.lo : other.c.lo) = at;
    rects.push_back(other);
  }
  BlockLayout l(rows, cols, P);
  for (const Rect& r : rects)
    l.add_rect(static_cast<int>(rng.uniform(0, P - 1)), r);
  return l;
}

constexpr int kLayoutKinds = 10;
const char* const kKindNames[kLayoutKinds] = {
    "row_1d", "col_1d",  "grid_2d", "grid_2d col-major", "block_cyclic",
    "single", "ca3dmm",  "cosma",   "summa",             "2.5d"};

BlockLayout layout_of_kind(int kind, Rng& rng, i64 rows, i64 cols, int P) {
  switch (kind) {
    case 0: return BlockLayout::row_1d(rows, cols, P);
    case 1: return BlockLayout::col_1d(rows, cols, P);
    case 2:
    case 3: {
      const int pr = divisor_of(rng, P);
      return BlockLayout::grid_2d(rows, cols, pr, P / pr, kind == 3);
    }
    case 4: {
      const int pr = divisor_of(rng, P);
      return BlockLayout::block_cyclic(rows, cols, pr, P / pr,
                                       rng.uniform(1, 7), rng.uniform(1, 7));
    }
    case 5:
      return BlockLayout::single(rows, cols,
                                 static_cast<int>(rng.uniform(0, P - 1)), P);
    case 6:
      return plan_native(rng, rows, cols, [&](i64 m, i64 n, i64 k) {
        return Ca3dmmPlan::make(m, n, k, P);
      });
    case 7:
      return plan_native(rng, rows, cols, [&](i64 m, i64 n, i64 k) {
        return CosmaPlan::make(m, n, k, P);
      });
    case 8:
      return plan_native(rng, rows, cols, [&](i64 m, i64 n, i64 k) {
        return SummaPlan::make(m, n, k, P);
      });
    default:
      return plan_native(rng, rows, cols, [&](i64 m, i64 n, i64 k) {
        return P25dPlan::make(m, n, k, P);
      });
  }
}

TEST(RedistributePeers, EveryKindPairMatchesDenseOracle) {
  Rng rng(14);
  for (const int P : {7, 48})
    for (int ks = 0; ks < kLayoutKinds; ++ks)
      for (int kd = 0; kd < kLayoutKinds; ++kd)
        for (const bool transpose : {false, true}) {
          const i64 rows = rng.uniform(1, 70), cols = rng.uniform(1, 70);
          const BlockLayout src = layout_of_kind(ks, rng, rows, cols, P);
          const BlockLayout dst =
              transpose ? layout_of_kind(kd, rng, cols, rows, P)
                        : layout_of_kind(kd, rng, rows, cols, P);
          expect_matches_oracle(src, dst, transpose,
                                "P=" + std::to_string(P) + " " +
                                    kKindNames[ks] + " -> " + kKindNames[kd]);
        }
}

TEST(RedistributePeers, RandomSeededPairsMatchDenseOracle) {
  Rng rng(20261016);
  for (const int P : {1, 7, 48, 256})
    for (int trial = 0; trial < (P == 256 ? 16 : 48); ++trial) {
      const i64 rows = rng.uniform(1, 120), cols = rng.uniform(1, 120);
      const bool transpose = rng.uniform(0, 1) == 1;
      const auto pick = [&](i64 r, i64 c) {
        const int kind = static_cast<int>(rng.uniform(0, kLayoutKinds));
        return kind == kLayoutKinds ? guillotine(rng, r, c, P)
                                    : layout_of_kind(kind, rng, r, c, P);
      };
      const BlockLayout src = pick(rows, cols);
      const BlockLayout dst = transpose ? pick(cols, rows) : pick(rows, cols);
      expect_matches_oracle(src, dst, transpose,
                            "P=" + std::to_string(P) + " trial " +
                                std::to_string(trial));
    }
}

TEST(RedistributePeers, GuillotineLayoutsRoundTrip) {
  // Rects that span several index bands, ranks with many or no rects.
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const int P = static_cast<int>(rng.uniform(1, 9));
    const i64 rows = rng.uniform(1, 30), cols = rng.uniform(1, 30);
    const bool transpose = trial % 2 == 1;
    const BlockLayout src = guillotine(rng, rows, cols, P);
    const BlockLayout dst = transpose ? guillotine(rng, cols, rows, P)
                                      : guillotine(rng, rows, cols, P);
    ASSERT_TRUE(src.covers_exactly());
    ASSERT_TRUE(dst.covers_exactly());
    roundtrip(src, dst, P, transpose);
  }
}

// ---- identity conversions: a local copy, no rendezvous ----

/// Runs `body` on P ranks of `mach` on one fiber worker and returns the
/// cluster.
std::unique_ptr<Cluster> run_one_worker(int P, const Machine& mach,
                                        const std::function<void(Comm&)>& body) {
  auto cl = std::make_unique<Cluster>(P, mach);
  cl->set_fiber_workers(1);
  cl->run(body);
  return cl;
}

i64 comm_locks(const Cluster& cl) {
  return cl.host_profile().lock(simmpi::LockClass::kComm).acquired;
}

TEST(RedistributeIdentity, LocalCopyWithoutRendezvousOrStaging) {
  const int P = 6;
  const Machine mach = Machine::unit_test();
  const BlockLayout l = BlockLayout::grid_2d(13, 9, 3, 2);
  ASSERT_TRUE(is_identity(l, l, false));
  ASSERT_TRUE(redistribution_volume(l, l, false, 8).identity);
  const i64 idle = comm_locks(*run_one_worker(P, mach, [](Comm&) {}));
  const auto cl = run_one_worker(P, mach, [&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(l.local_size(c.rank())));
    fill_local(l, c.rank(), 42, in);
    redistribute<double>(c, l, in.data(), l, out.data());
    check_local(l, c.rank(), 42, out, false);
  });
  // No collective: no rendezvous lock is taken more often than by a run
  // that does nothing.
  EXPECT_EQ(comm_locks(*cl), idle);
  for (int r = 0; r < P; ++r) {
    const simmpi::RankStats& s = cl->stats(r);
    // One scan of the rank's bytes, as Comm::charge_local_work prices it.
    EXPECT_EQ(s.vtime, static_cast<double>(l.local_size(r)) * 8 /
                           mach.intra_rank_bandwidth())
        << "rank " << r;
    EXPECT_EQ(s.peak_bytes, 0) << "rank " << r;  // nothing staged
    EXPECT_EQ(s.total_bytes_sent(), 0) << "rank " << r;
  }
  // A real conversion of the same matrix rendezvouses.
  const BlockLayout col = BlockLayout::col_1d(13, 9, P);
  const auto conv = run_one_worker(P, mach, [&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(col.local_size(c.rank())));
    fill_local(l, c.rank(), 42, in);
    redistribute<double>(c, l, in.data(), col, out.data());
  });
  EXPECT_GT(comm_locks(*conv), idle);
}

TEST(RedistributeIdentity, EqualContentHandlesTakeTheIdentityBranch) {
  // Two handles built separately share no storage but own the same rects in
  // the same order: still a local copy.
  const BlockLayout a = BlockLayout::row_1d(8, 8, 4);
  const BlockLayout b = BlockLayout::row_1d(8, 8, 4);
  EXPECT_TRUE(is_identity(a, b, false));
  EXPECT_TRUE(redistribution_volume(a, b, false, 8).identity);
  const i64 idle =
      comm_locks(*run_one_worker(4, Machine::unit_test(), [](Comm&) {}));
  const auto cl = run_one_worker(4, Machine::unit_test(), [&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(b.local_size(c.rank())));
    fill_local(a, c.rank(), 7, in);
    redistribute<double>(c, a, in.data(), b, out.data());
    check_local(b, c.rank(), 7, out, false);
  });
  EXPECT_EQ(comm_locks(*cl), idle);

  // The same rects in another order put elements at other local offsets:
  // not an identity, and the conversion reorders them.
  BlockLayout fwd(6, 6, 2), rev(6, 6, 2);
  fwd.add_rect(0, {{0, 3}, {0, 6}});
  fwd.add_rect(0, {{3, 6}, {0, 3}});
  fwd.add_rect(1, {{3, 6}, {3, 6}});
  rev.add_rect(0, {{3, 6}, {0, 3}});
  rev.add_rect(0, {{0, 3}, {0, 6}});
  rev.add_rect(1, {{3, 6}, {3, 6}});
  EXPECT_FALSE(is_identity(fwd, rev, false));
  EXPECT_FALSE(redistribution_volume(fwd, rev, false, 8).identity);
  roundtrip(fwd, rev, 2);
}

TEST(RedistributeIdentity, TransposedIdentityStillConverts) {
  // A square layout onto itself, transposed, moves every off-diagonal
  // block: it takes the alltoallv.
  const int P = 4;
  const BlockLayout l = BlockLayout::grid_2d(8, 8, 2, 2);
  EXPECT_FALSE(is_identity(l, l, true));
  const RedistVolume v = redistribution_volume(l, l, true, 8);
  EXPECT_FALSE(v.identity);
  EXPECT_GT(v.max_send_bytes, 0);
  const i64 idle =
      comm_locks(*run_one_worker(P, Machine::unit_test(), [](Comm&) {}));
  const auto cl = run_one_worker(P, Machine::unit_test(), [&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(l.local_size(c.rank())));
    fill_local(l, c.rank(), 3, in);
    redistribute<double>(c, l, in.data(), l, out.data(), /*transpose=*/true);
    check_local(l, c.rank(), 3, out, /*transposed=*/true);
  });
  EXPECT_GT(comm_locks(*cl), idle);
}

TEST(RedistributeStaging, OverlappingUserLayoutRaisesBeforeStaging) {
  // A schedule's staging tail is sized from the layouts' local sizes, which
  // equal the walk's totals only for a layout that covers its matrix
  // exactly. A user C layout in which every rank owns the whole matrix
  // makes each owner of a native C block send it to all P ranks: more than
  // the tail holds. The run raises one Error before any staging byte is
  // written (ASan would report a write past the tail), C is untouched, and
  // every rank unwinds its tracked slots.
  const int P = 4;
  const i64 m = 32, n = 32, k = 32;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P);
  BlockLayout everywhere(m, n, P);
  for (int r = 0; r < P; ++r) everywhere.add_rect(r, {{0, m}, {0, n}});
  ASSERT_FALSE(everywhere.covers_exactly());
  Cluster cl(P, Machine::unit_test());
  std::vector<std::vector<double>> c(static_cast<size_t>(P));
  std::string msg;
  try {
    cl.run([&](Comm& world) {
      const int me = world.rank();
      std::vector<double> a, b;
      fill_local(plan.a_native(), me, 1, a);
      fill_local(plan.b_native(), me, 2, b);
      std::vector<double>& cr = c[static_cast<size_t>(me)];
      cr.assign(static_cast<size_t>(m * n), -1.0);
      ca3dmm_multiply<double>(world, plan, false, false, plan.a_native(),
                              a.data(), plan.b_native(), b.data(), everywhere,
                              cr.data());
    });
  } catch (const Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("more than the"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rects overlap"), std::string::npos) << msg;
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(cl.stats(r).cur_bytes, 0) << "rank " << r;
    for (double x : c[static_cast<size_t>(r)]) ASSERT_EQ(x, -1.0);
  }
}

}  // namespace
}  // namespace ca3dmm
