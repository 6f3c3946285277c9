// Control-plane set-up at the paper's scale (paper §5, Fig. 4; ROADMAP
// item 2): the real system, not the Fig. 4 cost model. A 1000-node
// Barabási–Albert overlay with its MST as the dissemination tree, the 63
// sensor streams published at random nodes, one processor at node 0 and
// zipf(1.5) select-project queries from QueryWorkloadGenerator, each
// submitted through a synchronous CosmosSystem from a random user node.
// For merging on and off it prints, at each checkpoint, the mean set-up
// time per query so far and over the last interval, the groups formed and
// the routing-table entries across all nodes (TotalTableEntries()).
//
// The yardstick: with merging off, the mean per-query set-up at 10^4
// queries stays within 2x of that at 10^3 (a control operation costs what
// its change touches, not what the whole system holds).
//
// Usage: bench_control_plane_scale [max_queries=10000] [nodes=1000]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"
#include "core/system.h"
#include "core/workload.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "stream/sensor_dataset.h"

using namespace cosmos;

namespace {

constexpr uint64_t kSeed = 42;

int Run(bool merging, int max_queries, int num_nodes) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = num_nodes;
  topo_opts.seed = kSeed;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  SystemOptions options;
  options.processor.enable_merging = merging;
  CosmosSystem system(DisseminationTree::FromEdges(
                          num_nodes, *MinimumSpanningTree(topo.graph))
                          .value(),
                      options);
  if (!system.AddProcessor(0).ok()) return 1;

  SensorDataset sensors;
  Rng placement(kSeed ^ 0x9E37);
  for (int k = 0; k < sensors.num_stations(); ++k) {
    const NodeId publisher =
        static_cast<NodeId>(placement.NextBounded(num_nodes));
    if (!system
             .RegisterSource(sensors.SchemaOf(k), sensors.RatePerStation(),
                             publisher)
             .ok()) {
      return 1;
    }
  }

  WorkloadOptions wl;
  wl.zipf_theta = 1.5;
  wl.seed = kSeed ^ 0xABCDEF;
  QueryWorkloadGenerator gen(&system.catalog(), wl);
  Rng users(kSeed ^ 0x5555);

  using Clock = std::chrono::steady_clock;
  double total_ms = 0.0;
  double interval_ms = 0.0;
  int submitted = 0;
  int last_checkpoint = 0;
  for (int checkpoint : {1000, 2000, 5000, 10000}) {
    if (checkpoint > max_queries) checkpoint = max_queries;
    if (checkpoint <= last_checkpoint) break;
    while (submitted < checkpoint) {
      const std::string cql = gen.NextCql();
      const NodeId user = static_cast<NodeId>(users.NextBounded(num_nodes));
      const auto start = Clock::now();
      Result<std::string> id = system.SubmitQuery(
          cql, user, [](const std::string&, const Tuple&) {});
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (!id.ok()) {
        std::fprintf(stderr, "SubmitQuery \"%s\": %s\n", cql.c_str(),
                     id.status().ToString().c_str());
        return 1;
      }
      total_ms += ms;
      interval_ms += ms;
      ++submitted;
    }
    std::printf("%-8s %8d %14.3f %14.3f %8zu %14zu\n",
                merging ? "on" : "off", submitted, total_ms / submitted,
                interval_ms / (submitted - last_checkpoint),
                system.processor(0)->grouping().num_groups(),
                system.network().TotalTableEntries());
    std::fflush(stdout);
    interval_ms = 0.0;
    last_checkpoint = submitted;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_queries = argc > 1 ? std::atoi(argv[1]) : 10000;
  const int num_nodes = argc > 2 ? std::atoi(argv[2]) : 1000;
  std::printf("# Control-plane set-up: %d nodes (BA + MST), 63 streams, one "
              "processor, zipf(1.5) select-project queries\n",
              num_nodes);
  std::printf("%-8s %8s %14s %14s %8s %14s\n", "merging", "queries",
              "ms/query", "ms/q interval", "groups", "table entries");
  for (bool merging : {true, false}) {
    if (Run(merging, max_queries, num_nodes) != 0) return 1;
  }
  return 0;
}
