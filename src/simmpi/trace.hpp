// Structured virtual-time tracing for the simulated cluster.
//
// When enabled via TraceConfig, every rank records one TraceRecord per
// operation that advances its virtual clock — point-to-point sends/receives,
// collectives (with the resolved schedule, payload bytes and modeled
// inter-node bytes), local GEMMs — plus zero-duration markers for events
// that charge no time (plan builds, engine cache hits, redistribution
// pack/unpack). Records carry enough dependency information (dep_rank,
// t_dep) to reconstruct the critical path through the rank timelines.
//
// Everything here is off by default and guarded by a per-rank boolean, so a
// run with tracing disabled executes exactly the pre-trace code path:
// virtual clocks, statistics and results are bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/partition.hpp"

namespace ca3dmm::simmpi {

class Cluster;
enum class Phase;

/// What a TraceRecord describes.
enum class TraceKind : std::uint8_t {
  kCollective,  ///< one collective call (barrier/bcast/.../alltoallv/split)
  kP2pRecv,     ///< the receive half of a sendrecv
  kP2pWait,     ///< sendrecv completion wait beyond the recv half
  kCompute,     ///< local GEMM (duration = non-overlapped clock advance)
  kMarker,      ///< zero-duration annotation (plan build, cache event, ...)
};

/// One per-rank trace entry. Durations are virtual seconds; [t0, t1] tiles
/// the rank's clock timeline for non-marker records. `name`/`algo` point to
/// static strings.
struct TraceRecord {
  TraceKind kind = TraceKind::kMarker;
  Phase phase{};             ///< phase the time was charged to
  double t0 = 0, t1 = 0;     ///< virtual interval (t0 == t1 for markers)
  const char* name = "";     ///< operation name ("allgather", "send", ...)
  const char* algo = nullptr;  ///< resolved collective schedule, if any
  double bytes_out = 0;      ///< logical payload bytes sent by this rank
  double bytes_in = 0;       ///< logical payload bytes received by this rank
  double inter_bytes = 0;    ///< this rank's share of modeled inter-node bytes
  double flops = 0;          ///< local flops (kCompute)
  int peer = -1;             ///< p2p peer world rank
  int tag = -1;              ///< p2p tag
  std::uint64_t comm_id = 0;  ///< communicator of a collective
  int comm_size = 0;
  /// Dependency edge for critical-path extraction: the operation could not
  /// complete before world rank `dep_rank` reached time `t_dep` (the last
  /// arriver of a collective, the sender of a receive). dep_rank < 0 means
  /// the operation was bounded by this rank alone.
  int dep_rank = -1;
  double t_dep = 0;
};

/// Tracing configuration, set on the Cluster before run().
struct TraceConfig {
  bool enabled = false;
  /// Also record zero-duration markers (plan build, cache events,
  /// redistribution pack/unpack). Only consulted when `enabled`.
  bool markers = true;
};

// ------------------------------------------------------------------
// Post-run analysis (all functions read the last run() of the cluster and
// require tracing to have been enabled)
// ------------------------------------------------------------------

/// Per-phase aggregate over all ranks of one traced run.
struct PhaseAggregate {
  i64 count = 0;          ///< trace records charged to this phase
  double vtime_max = 0;   ///< max over ranks of time spent in the phase
  double vtime_avg = 0;   ///< average over ranks
  double skew_max = 0;    ///< max - min over ranks
  double skew_avg = 0;    ///< max - avg over ranks
  double bytes = 0;       ///< summed logical payload bytes sent
  double inter_bytes = 0; ///< summed modeled inter-node bytes
  double flops = 0;       ///< summed local flops
};

struct TraceAggregate {
  std::vector<PhaseAggregate> phases;  ///< one entry per Phase
  double vtime_max = 0;
  int nranks = 0;
};

/// One hop of the critical path: the part of a record that bounds the run.
struct CritSegment {
  int rank = -1;
  Phase phase{};
  const char* name = "";
  double t0 = 0, t1 = 0;
};

TraceAggregate aggregate_trace(const Cluster& cl);
std::string format_aggregate_table(const TraceAggregate& agg);

/// Walks dependency edges backwards from the rank that finishes last and
/// returns the chain in increasing time order. Segments are contiguous:
/// each starts where the previous one ends (possibly on another rank).
std::vector<CritSegment> critical_path(const Cluster& cl);
std::string format_critical_path(const std::vector<CritSegment>& path,
                                 size_t max_rows = 40);

/// Chrome trace-event JSON exporter (chrome://tracing, ui.perfetto.dev):
/// one pid per simulated node, one tid per rank, 1 trace microsecond = 1
/// simulated microsecond. Output is a pure function of the recorded trace,
/// so identical runs export byte-identical files.
void write_chrome_trace_file(const Cluster& cl, const std::string& path);

}  // namespace ca3dmm::simmpi
