// Topology-aware collective engine benchmark: allgather / reduce-scatter
// costs of every schedule on multi-node Fig.-4-style groups (phoenix
// machine, 2 and 8 full nodes) across message sizes. The hierarchical
// schedule must strictly reduce both the modeled inter-node bytes and the
// virtual time against the flat paper butterfly for large messages.
//
// Emits BENCH_collectives.json.
#include <cstdio>

#include "bench_common.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm::bench {
namespace {

using simmpi::CollAlgo;
using simmpi::CollCost;
using simmpi::GroupProfile;
using simmpi::LinkParams;
using simmpi::Machine;

const CollAlgo kAlgos[] = {CollAlgo::kPaperButterfly, CollAlgo::kRing,
                           CollAlgo::kRecursive, CollAlgo::kHierarchical};

struct ModelRow {
  int p = 0;
  int nodes = 0;
  const char* op = "";
  double mib = 0;
  const char* algo = "";
  double sim_s = 0;
  double inter_mib = 0;
};

/// A group of `nodes` full phoenix nodes (24 ranks each).
GroupProfile full_nodes(const Machine& m, int nodes) {
  GroupProfile g;
  g.size = nodes * m.ranks_per_node;
  g.nodes = nodes;
  g.max_ranks_per_node = m.ranks_per_node;
  g.single_node = nodes == 1;
  return g;
}

std::vector<ModelRow> modeled_sweep() {
  const Machine mach = Machine::phoenix_mpi();
  std::vector<ModelRow> rows;
  for (int nodes : {2, 8}) {
    const GroupProfile g = full_nodes(mach, nodes);
    const LinkParams l = group_link(mach, g);
    for (double mib : {1.0, 16.0, 256.0}) {
      const double bytes = mib * 1048576.0;
      for (CollAlgo a : kAlgos) {
        const CollCost ag =
            coll_allgather_cost(mach, g, l, a, bytes, g.size);
        rows.push_back({g.size, nodes, "allgather", mib, coll_algo_name(a),
                        ag.t, ag.inter_bytes / 1048576.0});
        const CollCost rs = coll_reduce_scatter_cost(mach, g, l, a, bytes,
                                                     g.size, false);
        rows.push_back({g.size, nodes, "reduce_scatter", mib,
                        coll_algo_name(a), rs.t, rs.inter_bytes / 1048576.0});
      }
    }
  }
  return rows;
}

void write_json(const std::vector<ModelRow>& rows) {
  const char* path = "BENCH_collectives.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"collectives\",\n  \"modeled\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ModelRow& r = rows[i];
    std::fprintf(f,
                 "    {\"p\": %d, \"nodes\": %d, \"op\": \"%s\", "
                 "\"mib\": %.0f, \"algo\": \"%s\", \"sim_s\": %.9f, "
                 "\"inter_mib\": %.3f}%s\n",
                 r.p, r.nodes, r.op, r.mib, r.algo, r.sim_s, r.inter_mib,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_tables() {
  const std::vector<ModelRow> rows = modeled_sweep();
  std::printf(
      "\n=== Modeled collective schedules on full phoenix nodes "
      "(24 ranks/node) ===\n");
  TextTable t({"group", "op", "msg MiB", "schedule", "sim ms", "inter MiB"});
  for (const ModelRow& r : rows)
    t.add_row({strprintf("%d ranks / %d nodes", r.p, r.nodes), r.op,
               strprintf("%.0f", r.mib), r.algo,
               strprintf("%.3f", r.sim_s * 1e3),
               strprintf("%.1f", r.inter_mib)});
  t.print();
  std::printf(
      "\n(hierarchical sends each node's bytes over its NIC once: inter\n"
      " bytes drop from n*(p - r) to n*(N - 1) vs the flat butterfly)\n");
  write_json(rows);
}

void register_benchmarks() {
  for (const ModelRow& r : modeled_sweep())
    register_sim_time(strprintf("coll/%s/p%d/%.0fMiB/%s", r.op, r.p, r.mib,
                                r.algo),
                      r.sim_s);
}

}  // namespace
}  // namespace ca3dmm::bench

int main(int argc, char** argv) {
  ca3dmm::bench::register_benchmarks();
  return ca3dmm::bench::run_bench_main(argc, argv,
                                       ca3dmm::bench::print_tables);
}
