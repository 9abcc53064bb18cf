#include "simmpi/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm::simmpi {

namespace {

const char* kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kCollective: return "collective";
    case TraceKind::kP2pRecv: return "p2p_recv";
    case TraceKind::kP2pWait: return "p2p_wait";
    case TraceKind::kCompute: return "compute";
    case TraceKind::kMarker: return "marker";
  }
  return "?";
}

/// Deterministic fixed-precision microsecond timestamp (Chrome traces use
/// double microseconds; %.6f keeps sub-picosecond resolution and a stable
/// textual form across runs).
void put_us(std::string& out, double seconds) {
  out += strprintf("%.6f", seconds * 1e6);
}

void put_common_args(std::string& out, const TraceRecord& r) {
  out += strprintf(",\"args\":{\"phase\":\"%s\"", phase_name(r.phase));
  if (r.bytes_out > 0) out += strprintf(",\"bytes_out\":%.0f", r.bytes_out);
  if (r.bytes_in > 0) out += strprintf(",\"bytes_in\":%.0f", r.bytes_in);
  if (r.inter_bytes > 0)
    out += strprintf(",\"inter_bytes\":%.3f", r.inter_bytes);
  if (r.flops > 0) out += strprintf(",\"flops\":%.0f", r.flops);
  if (r.algo != nullptr) out += strprintf(",\"algo\":\"%s\"", r.algo);
  if (r.peer >= 0) out += strprintf(",\"peer\":%d", r.peer);
  if (r.tag >= 0) out += strprintf(",\"tag\":%d", r.tag);
  if (r.comm_id != 0)
    out += strprintf(",\"comm\":%llu,\"comm_size\":%d",
                     static_cast<unsigned long long>(r.comm_id), r.comm_size);
  if (r.dep_rank >= 0) {
    out += strprintf(",\"dep_rank\":%d,\"dep_ts\":", r.dep_rank);
    put_us(out, r.t_dep);
  }
  out += "}";
}

}  // namespace

void write_chrome_trace_file(const Cluster& cl, const std::string& path) {
  CA_REQUIRE(cl.trace_config().enabled,
             "write_chrome_trace_file needs set_trace(true) before run()");
  std::FILE* f = std::fopen(path.c_str(), "w");
  CA_REQUIRE(f != nullptr, "cannot open trace file %s", path.c_str());
  const Topology& topo = cl.topology();
  std::string out = "[\n";
  // Metadata: one process per simulated node, one thread per rank. Node ids
  // are the topology's *physical* ids — possibly non-contiguous after a
  // shrink-and-replan — so events of a survivor rank stay attributed to the
  // node it actually runs on.
  for (const int node : topo.node_ids())
    out += strprintf(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
        "\"args\":{\"name\":\"node %d\"}},\n",
        node, node);
  for (int r = 0; r < cl.nranks(); ++r)
    out += strprintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"rank %d\"}},\n",
        topo.node_of_rank(r), r, r);
  bool first = true;
  for (int rank = 0; rank < cl.nranks(); ++rank) {
    const int pid = topo.node_of_rank(rank);
    for (const TraceRecord& r : cl.trace(rank)) {
      if (!first) out += ",\n";
      first = false;
      if (r.kind == TraceKind::kMarker) {
        out += strprintf(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            r.name, phase_name(r.phase));
        put_us(out, r.t0);
        out += strprintf(",\"pid\":%d,\"tid\":%d", pid, rank);
      } else {
        out += strprintf("{\"name\":\"%s\",\"cat\":\"%s %s\",\"ph\":\"X\","
                         "\"ts\":",
                         r.name, kind_name(r.kind), phase_name(r.phase));
        put_us(out, r.t0);
        out += ",\"dur\":";
        put_us(out, r.t1 - r.t0);
        out += strprintf(",\"pid\":%d,\"tid\":%d", pid, rank);
      }
      put_common_args(out, r);
      out += "}";
    }
  }
  out += "\n]\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

TraceAggregate aggregate_trace(const Cluster& cl) {
  CA_REQUIRE(cl.trace_config().enabled,
             "aggregate_trace needs set_trace(true) before run()");
  const int np = static_cast<int>(Phase::kCount);
  TraceAggregate agg;
  agg.phases.resize(static_cast<size_t>(np));
  agg.nranks = cl.nranks();
  std::vector<double> mins(static_cast<size_t>(np), 0);
  std::vector<double> sums(static_cast<size_t>(np), 0);
  for (int rank = 0; rank < cl.nranks(); ++rank) {
    const RankStats& s = cl.stats(rank);
    agg.vtime_max = std::max(agg.vtime_max, s.vtime);
    for (int p = 0; p < np; ++p) {
      PhaseAggregate& a = agg.phases[static_cast<size_t>(p)];
      const double t = s.phase_s[p];
      if (rank == 0)
        mins[static_cast<size_t>(p)] = t;
      else
        mins[static_cast<size_t>(p)] = std::min(mins[static_cast<size_t>(p)], t);
      a.vtime_max = std::max(a.vtime_max, t);
      sums[static_cast<size_t>(p)] += t;
      a.bytes += s.bytes_sent_s[p];
      a.inter_bytes += s.inter_bytes_s[p];
    }
    for (const TraceRecord& r : cl.trace(rank)) {
      PhaseAggregate& a = agg.phases[static_cast<size_t>(r.phase)];
      a.count++;
      a.flops += r.flops;
    }
  }
  for (int p = 0; p < np; ++p) {
    PhaseAggregate& a = agg.phases[static_cast<size_t>(p)];
    a.vtime_avg = sums[static_cast<size_t>(p)] / cl.nranks();
    // max >= min and max >= avg by construction; clamp rounding residue.
    a.skew_max = std::max(0.0, a.vtime_max - mins[static_cast<size_t>(p)]);
    a.skew_avg = std::max(0.0, a.vtime_max - a.vtime_avg);
  }
  return agg;
}

std::string format_aggregate_table(const TraceAggregate& agg) {
  std::string out = strprintf(
      "%-14s %8s %12s %12s %12s %14s %14s\n", "phase", "events", "vtime ms",
      "skew max ms", "skew avg ms", "bytes", "inter bytes");
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const PhaseAggregate& a = agg.phases[static_cast<size_t>(p)];
    if (a.count == 0 && a.vtime_max == 0 && a.bytes == 0) continue;
    out += strprintf("%-14s %8lld %12.4f %12.4f %12.4f %14.0f %14.0f\n",
                     phase_name(static_cast<Phase>(p)),
                     static_cast<long long>(a.count), a.vtime_max * 1e3,
                     a.skew_max * 1e3, a.skew_avg * 1e3, a.bytes,
                     a.inter_bytes);
  }
  out += strprintf("%-14s %8s %12.4f\n", "total", "", agg.vtime_max * 1e3);
  return out;
}

std::vector<CritSegment> critical_path(const Cluster& cl) {
  CA_REQUIRE(cl.trace_config().enabled,
             "critical_path needs set_trace(true) before run()");
  const double eps = 1e-15;
  // End on the rank that finishes last (ties -> lowest rank).
  int rank = 0;
  double t = 0;
  for (int r = 0; r < cl.nranks(); ++r)
    if (cl.stats(r).vtime > t + eps) {
      t = cl.stats(r).vtime;
      rank = r;
    }
  std::vector<CritSegment> path;
  // Non-marker records of a rank tile [0, vtime] in order; walk backwards
  // from (rank, t), hopping to the dependency rank whenever an operation
  // was bounded by a peer's arrival. Bounded by the total record count.
  size_t guard = 0;
  for (int r = 0; r < cl.nranks(); ++r) guard += cl.trace(r).size();
  while (t > eps && path.size() <= guard) {
    const std::vector<TraceRecord>& recs = cl.trace(rank);
    // Latest record with t0 < t and t1 >= t (durations tile the timeline;
    // markers and zero-width records never cover an interval).
    const TraceRecord* cover = nullptr;
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
      if (it->kind == TraceKind::kMarker || it->t1 - it->t0 <= eps) continue;
      if (it->t0 < t - eps && it->t1 >= t - eps) {
        cover = &*it;
        break;
      }
    }
    if (cover == nullptr) break;  // untraced gap (e.g. rank joined late)
    const bool hop =
        cover->dep_rank >= 0 && cover->t_dep > cover->t0 + eps &&
        cover->t_dep < t - eps;
    const double seg_start = hop ? cover->t_dep : cover->t0;
    path.push_back(CritSegment{rank, cover->phase, cover->name, seg_start,
                               std::min(t, cover->t1)});
    if (hop) {
      rank = cover->dep_rank;
      t = cover->t_dep;
    } else {
      t = cover->t0;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string format_critical_path(const std::vector<CritSegment>& path,
                                 size_t max_rows) {
  std::string out = strprintf("%-10s %-6s %-14s %-16s %12s\n", "t0 ms",
                              "rank", "op", "phase", "dur ms");
  size_t shown = 0;
  for (const CritSegment& s : path) {
    if (shown++ >= max_rows) {
      out += strprintf("  ... %zu more segments\n", path.size() - max_rows);
      break;
    }
    out += strprintf("%-10.4f %-6d %-14s %-16s %12.4f\n", s.t0 * 1e3, s.rank,
                     s.name, phase_name(s.phase), (s.t1 - s.t0) * 1e3);
  }
  return out;
}

}  // namespace ca3dmm::simmpi
