// Generic distributed-matrix redistribution (paper Algorithm 1, steps 4/8).
//
// Converts a matrix from one BlockLayout to another over the same
// communicator with a single personalized all-to-all, optionally applying a
// transpose on the fly. CA3DMM uses this to convert user distributions to
// its library-native initial A/B distributions and to return C in the user's
// distribution; the transpose path is how `op(A) x op(B)` is supported "for
// free" during redistribution (paper §III-B).
//
// Both sides of every message derive the segment order from the same global
// layout information, so no plan metadata is exchanged: for source rank s and
// destination rank d, segments are ordered by (source rect index, destination
// rect index) and elements row-major in *source* coordinates; messages are
// packed by ascending peer rank.
//
// A rank finds its peers by querying the other layout's row-band index
// (BlockLayout::index) with its own rects, so the metadata work per rank is
// O((rects + overlaps) log) rather than O(P), and the alltoallv lists only
// the peers that exchange data. The cost model's redistribution_volume runs
// the same query for every rank.
#pragma once

#include <functional>
#include <vector>

#include "layout/block_layout.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm {

/// True iff converting `src` to `dst` moves nothing: every element stays at
/// the same offset of the same rank. Depends only on the layouts (equal
/// content suffices, not the same handle), which MPI semantics make
/// identical on every rank, so every rank agrees on it.
inline bool is_identity(const BlockLayout& src, const BlockLayout& dst,
                        bool transpose) {
  return !transpose && src == dst;
}

/// Staging of a non-identity redistribution: the packed send buffer and
/// the receive buffer.
template <typename T>
struct RedistStaging {
  T* send = nullptr;
  T* recv = nullptr;
};

/// Gives a non-identity redistribution its staging once the segment walk
/// is known: called with the elements the rank packs and receives, it
/// returns buffers of that many elements, valid until redistribute
/// returns, or raises ca3dmm::Error.
template <typename T>
using StageFn = std::function<RedistStaging<T>(i64 send_elems, i64 recv_elems)>;

/// Redistributes `src_local` (this rank's data under `src`) into `dst_local`
/// (sized dst.local_size(rank)) under `dst`, staging through `stage`.
///
/// If `transpose`, the destination layout describes the transposed index
/// space: dst.rows() == src.cols() and dst.cols() == src.rows(), and global
/// source element (i, j) lands at destination element (j, i).
///
/// Collective over `comm`; src and dst must both span comm.size() ranks. An
/// identity conversion (is_identity) is a plain local copy instead: no
/// staging, no alltoallv, no rendezvous, charged as one local scan of the
/// rank's bytes (Comm::charge_local_work). When both layouts cover their
/// matrix exactly, a rank packs src.local_size(rank) elements and receives
/// dst.local_size(rank).
template <typename T>
void redistribute(simmpi::Comm& comm, const BlockLayout& src,
                  const T* src_local, const BlockLayout& dst, T* dst_local,
                  bool transpose, const StageFn<T>& stage);

/// As above, staging through the calling rank's memory block
/// (RankCtx::pool), tracked while the call runs.
template <typename T>
void redistribute(simmpi::Comm& comm, const BlockLayout& src,
                  const T* src_local, const BlockLayout& dst, T* dst_local,
                  bool transpose = false);

/// One overlapping (source rect, destination rect) pair of a
/// redistribution between the calling rank and `peer`: rect `si` of the
/// source rank and rect `di` of the destination rank overlap in `r` (source
/// coordinates).
struct RedistSegment {
  int peer = 0;
  size_t si = 0, di = 0;
  Rect r;
};

/// The segments rank `me` sends (`sending`: peers are destination ranks) or
/// receives (peers are source ranks), in packing order: peers ascending,
/// then (si, di). `transpose` as in redistribute().
std::vector<RedistSegment> redistribution_segments(const BlockLayout& src,
                                                   const BlockLayout& dst,
                                                   bool transpose, int me,
                                                   bool sending);

/// Byte volumes a redistribution would move. `max_*` exclude data that stays
/// on its rank (no network traffic — matches the engine's all-to-all time
/// charge); the per-rank staging sizes include it (the engine packs self
/// segments through the same buffers — matters for memory accounting). An
/// identity conversion sets `identity` and stages nothing.
struct RedistVolume {
  bool identity = false;   ///< is_identity: a local copy, no alltoallv
  i64 max_send_bytes = 0;  ///< max over ranks, self excluded
  i64 max_recv_bytes = 0;  ///< max over ranks, self excluded
  std::vector<i64> send_bytes;  ///< per rank, self excluded (wire traffic)
  std::vector<i64> recv_bytes;  ///< per rank, self excluded (wire traffic)
  std::vector<i64> send_staging_bytes;  ///< per rank, self included
  std::vector<i64> recv_staging_bytes;  ///< per rank, self included
};
RedistVolume redistribution_volume(const BlockLayout& src,
                                   const BlockLayout& dst, bool transpose,
                                   i64 esize);

}  // namespace ca3dmm
