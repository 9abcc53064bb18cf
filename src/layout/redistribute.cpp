#include "layout/redistribute.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace ca3dmm {

namespace {

/// Local-buffer base offset of each rect of `rank` under `layout`.
std::vector<i64> rect_bases(const BlockLayout& layout, int rank) {
  const auto rs = layout.rects_of(rank);
  std::vector<i64> base(rs.size() + 1, 0);
  for (size_t t = 0; t < rs.size(); ++t) base[t + 1] = base[t] + rs[t].size();
  return base;
}

/// Maps a rect between source and destination coordinates (either way).
Rect transposed_if(const Rect& r, bool transpose) {
  return transpose ? Rect{r.c, r.r} : r;
}

/// The alltoallv list of `segs`: one entry per peer, displacements packed
/// in segment order.
std::vector<simmpi::PeerBlock> peer_blocks(
    const std::vector<RedistSegment>& segs, i64 esize) {
  std::vector<simmpi::PeerBlock> out;
  i64 displ = 0;
  for (const RedistSegment& s : segs) {
    if (out.empty() || out.back().peer != s.peer)
      out.push_back(simmpi::PeerBlock{s.peer, 0, displ});
    out.back().bytes += s.r.size() * esize;
    displ += s.r.size() * esize;
  }
  return out;
}

}  // namespace

std::vector<RedistSegment> redistribution_segments(const BlockLayout& src,
                                                   const BlockLayout& dst,
                                                   bool transpose, int me,
                                                   bool sending) {
  std::vector<RedistSegment> segs;
  const BlockLayout& mine = sending ? src : dst;
  const BlockLayout& other = sending ? dst : src;
  const auto my_rects = mine.rects_of(me);
  for (size_t i = 0; i < my_rects.size(); ++i) {
    other.index().for_each_overlap(
        transposed_if(my_rects[i], transpose), [&](int peer, size_t j) {
          const Rect& theirs = other.rects_of(peer)[j];
          const Rect& s = sending ? my_rects[i] : theirs;
          const Rect& d = sending ? theirs : my_rects[i];
          segs.push_back(RedistSegment{
              peer, sending ? i : j, sending ? j : i,
              intersect(s, transposed_if(d, transpose))});
        });
  }
  std::sort(segs.begin(), segs.end(),
            [](const RedistSegment& x, const RedistSegment& y) {
              return std::tie(x.peer, x.si, x.di) <
                     std::tie(y.peer, y.si, y.di);
            });
  return segs;
}

template <typename T>
void redistribute(simmpi::Comm& comm, const BlockLayout& src,
                  const T* src_local, const BlockLayout& dst, T* dst_local,
                  bool transpose, const StageFn<T>& stage) {
  const int P = comm.size();
  const int me = comm.rank();
  CA_REQUIRE(src.nranks() == P && dst.nranks() == P,
             "layouts span %d/%d ranks but communicator has %d", src.nranks(),
             dst.nranks(), P);
  if (transpose)
    CA_REQUIRE(dst.rows() == src.cols() && dst.cols() == src.rows(),
               "transpose redistribution needs swapped dimensions");
  else
    CA_REQUIRE(dst.rows() == src.rows() && dst.cols() == src.cols(),
               "redistribution needs matching dimensions");

  if (is_identity(src, dst, transpose)) {
    const i64 n = src.local_size(me);
    std::copy_n(src_local, n, dst_local);
    comm.charge_local_work(static_cast<double>(n) * sizeof(T),
                           "redistribute:copy");
    return;
  }

  const i64 esize = static_cast<i64>(sizeof(T));
  const auto src_base = rect_bases(src, me);
  const auto dst_base = rect_bases(dst, me);
  const auto my_srects = src.rects_of(me);
  const auto my_drects = dst.rects_of(me);
  const auto sends = redistribution_segments(src, dst, transpose, me, true);
  const auto recvs = redistribution_segments(src, dst, transpose, me, false);
  const auto send_list = peer_blocks(sends, esize);
  const auto recv_list = peer_blocks(recvs, esize);
  const auto total = [](const std::vector<simmpi::PeerBlock>& l) {
    return l.empty() ? 0 : l.back().displ + l.back().bytes;
  };
  const i64 send_total = total(send_list) / esize;
  const i64 recv_total = total(recv_list) / esize;
  // Staging is part of the per-rank memory footprint the paper's Table I
  // measures; the caller tracks it.
  const RedistStaging<T> buf = stage(send_total, recv_total);

  // --- pack: row-major in source coordinates, canonical segment order ---
  simmpi::trace_marker("redistribute:pack",
                       static_cast<double>(send_total * esize));
  {
    i64 pos = 0;
    for (const RedistSegment& sg : sends) {
      const Rect& r = sg.r;
      const Rect& srect = my_srects[sg.si];
      const i64 ld = srect.c.size();
      const T* base = src_local + src_base[sg.si];
      for (i64 i = r.r.lo; i < r.r.hi; ++i) {
        const T* row = base + (i - srect.r.lo) * ld + (r.c.lo - srect.c.lo);
        std::memcpy(buf.send + pos, row,
                    static_cast<size_t>(r.c.size()) * sizeof(T));
        pos += r.c.size();
      }
    }
    CA_ASSERT(pos == send_total);
  }

  comm.alltoallv_bytes(buf.send, send_list, buf.recv, recv_list);

  // --- unpack: same canonical order; apply transpose when writing ---
  simmpi::trace_marker("redistribute:unpack",
                       static_cast<double>(recv_total * esize));
  {
    i64 pos = 0;
    for (const RedistSegment& sg : recvs) {
      const Rect& r = sg.r;
      const Rect& drect = my_drects[sg.di];
      const i64 ld = drect.c.size();
      T* base = dst_local + dst_base[sg.di];
      if (!transpose) {
        for (i64 i = r.r.lo; i < r.r.hi; ++i) {
          T* row = base + (i - drect.r.lo) * ld + (r.c.lo - drect.c.lo);
          std::memcpy(row, buf.recv + pos,
                      static_cast<size_t>(r.c.size()) * sizeof(T));
          pos += r.c.size();
        }
      } else {
        // Source element (i, j) lands at destination (j, i).
        for (i64 i = r.r.lo; i < r.r.hi; ++i)
          for (i64 j = r.c.lo; j < r.c.hi; ++j)
            base[(j - drect.r.lo) * ld + (i - drect.c.lo)] = buf.recv[pos++];
      }
    }
    CA_ASSERT(pos == recv_total);
  }
}

template <typename T>
void redistribute(simmpi::Comm& comm, const BlockLayout& src,
                  const T* src_local, const BlockLayout& dst, T* dst_local,
                  bool transpose) {
  simmpi::RankCtx& ctx = *simmpi::current_ctx();
  struct Tracked {  // released on any exit
    simmpi::RankCtx& ctx;
    i64 bytes = 0;
    ~Tracked() { ctx.track_free(bytes); }
  } tracked{ctx};
  const auto stage = [&](i64 send, i64 recv) {
    tracked.bytes = (send + recv) * static_cast<i64>(sizeof(T));
    T* p = reinterpret_cast<T*>(ctx.pool->reserve(tracked.bytes));
    ctx.track_alloc(tracked.bytes);
    return RedistStaging<T>{p, p + send};
  };
  redistribute<T>(comm, src, src_local, dst, dst_local, transpose, stage);
}

RedistVolume redistribution_volume(const BlockLayout& src,
                                   const BlockLayout& dst, bool transpose,
                                   i64 esize) {
  const int P = src.nranks();
  RedistVolume v;
  v.send_bytes.assign(static_cast<size_t>(P), 0);
  v.recv_bytes.assign(static_cast<size_t>(P), 0);
  v.send_staging_bytes.assign(static_cast<size_t>(P), 0);
  v.recv_staging_bytes.assign(static_cast<size_t>(P), 0);
  if (is_identity(src, dst, transpose)) {  // a local copy: nothing staged
    v.identity = true;
    return v;
  }
  // Every segment is a send of its source rank and a receive of its peer.
  for (int s = 0; s < P; ++s)
    for (const RedistSegment& sg :
         redistribution_segments(src, dst, transpose, s, true)) {
      const i64 bytes = sg.r.size() * esize;
      v.send_staging_bytes[static_cast<size_t>(s)] += bytes;
      v.recv_staging_bytes[static_cast<size_t>(sg.peer)] += bytes;
      if (sg.peer == s) continue;  // local copies are not network traffic
      v.send_bytes[static_cast<size_t>(s)] += bytes;
      v.recv_bytes[static_cast<size_t>(sg.peer)] += bytes;
    }
  for (int r = 0; r < P; ++r) {
    v.max_send_bytes = std::max(v.max_send_bytes, v.send_bytes[static_cast<size_t>(r)]);
    v.max_recv_bytes = std::max(v.max_recv_bytes, v.recv_bytes[static_cast<size_t>(r)]);
  }
  return v;
}

template void redistribute<float>(simmpi::Comm&, const BlockLayout&,
                                  const float*, const BlockLayout&, float*,
                                  bool, const StageFn<float>&);
template void redistribute<double>(simmpi::Comm&, const BlockLayout&,
                                   const double*, const BlockLayout&, double*,
                                   bool, const StageFn<double>&);
template void redistribute<float>(simmpi::Comm&, const BlockLayout&,
                                  const float*, const BlockLayout&, float*,
                                  bool);
template void redistribute<double>(simmpi::Comm&, const BlockLayout&,
                                   const double*, const BlockLayout&, double*,
                                   bool);

}  // namespace ca3dmm
