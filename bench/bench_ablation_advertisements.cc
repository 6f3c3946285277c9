// Ablation abl-adv (DESIGN.md): cost of subscription state under
// advertisement-scoped installation (paper §2: sources and processors
// advertise their streams, so interest state only lives on
// publisher->subscriber paths), the CBN's one propagation mode.
//
// The flooded baseline is computed, not simulated: a subscription flooded
// over an n-node tree installs one entry at each of the other n - 1 nodes,
// one control message each, so subs × (n - 1) of both. Deliveries over a
// short replay are asserted against direct Profile::Covers evaluation.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "cbn/network.h"
#include "common/string_util.h"
#include "core/profile_composer.h"
#include "core/workload.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "stream/sensor_dataset.h"

using namespace cosmos;

namespace {

struct Outcome {
  int subscriptions = 0;
  uint64_t control_messages = 0;
  size_t table_entries = 0;
  int deliveries = 0;
  int expected_deliveries = 0;
};

Outcome Run(int num_nodes, int num_subs) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = num_nodes;
  topo_opts.seed = 13;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  num_nodes, *MinimumSpanningTree(topo.graph))
                  .value();
  ContentBasedNetwork net(std::move(tree));

  Catalog catalog;
  SensorDataset sensors;
  (void)sensors.RegisterAll(catalog);

  // Publishers at deterministic nodes.
  Rng pub_rng(7);
  std::vector<NodeId> publisher(sensors.num_stations());
  for (int k = 0; k < sensors.num_stations(); ++k) {
    publisher[k] = static_cast<NodeId>(pub_rng.NextBounded(num_nodes));
    net.Advertise(publisher[k], SensorDataset::StreamName(k));
  }

  WorkloadOptions wl;
  wl.zipf_theta = 1.0;
  wl.seed = 99;
  QueryWorkloadGenerator gen(&catalog, wl);
  Outcome out;
  std::vector<Profile> profiles;
  Rng sub_rng(55);
  for (int i = 0; i < num_subs; ++i) {
    auto q = ParseAndAnalyze(gen.NextCql(), catalog, StrFormat("r%d", i));
    if (!q.ok()) continue;
    profiles.push_back(ComposeSourceProfile(*q));
    net.Subscribe(static_cast<NodeId>(sub_rng.NextBounded(num_nodes)),
                  profiles.back(),
                  [&out](const std::string&, const Tuple&) {
                    ++out.deliveries;
                  });
    ++out.subscriptions;
  }
  out.control_messages = net.control_messages();
  out.table_entries = net.TotalTableEntries();

  // Every subscriber must get exactly the datagrams its profile covers.
  SensorDatasetOptions sopts;
  sopts.duration = 10 * kMinute;
  SensorDataset data(sopts);
  auto replay = data.MakeReplay();
  while (auto t = replay->Next()) {
    int station = static_cast<int>(t->value(0).AsInt64());
    Datagram d{t->schema()->stream_name(), *t};
    for (const Profile& p : profiles) {
      if (p.Covers(d)) ++out.expected_deliveries;
    }
    net.Publish(publisher[station], d);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int num_nodes = argc > 1 ? std::atoi(argv[1]) : 200;
  int num_subs = argc > 2 ? std::atoi(argv[2]) : 150;
  std::printf("# Ablation: subscription propagation (%d nodes, 63 streams, "
              "%d subscriptions)\n",
              num_nodes, num_subs);
  Outcome out = Run(num_nodes, num_subs);
  // A flooded subscription installs one entry per other node.
  const uint64_t flooded = static_cast<uint64_t>(out.subscriptions) *
                           static_cast<uint64_t>(num_nodes - 1);
  std::printf("%-28s %16s %16s %14s\n", "regime", "control msgs",
              "table entries", "deliveries");
  std::printf("%-28s %16llu %16llu %14s\n", "flood (computed)",
              static_cast<unsigned long long>(flooded),
              static_cast<unsigned long long>(flooded), "-");
  std::printf("%-28s %16llu %16zu %14d\n", "advertised",
              static_cast<unsigned long long>(out.control_messages),
              out.table_entries, out.deliveries);
  const bool exact = out.deliveries == out.expected_deliveries;
  std::printf("\ndeliveries equal Profile::Covers count (%d): %s\n",
              out.expected_deliveries, exact ? "yes" : "NO (bug!)");
  std::printf("advertisement scoping keeps %.1f%% of flooded table state\n",
              100.0 * static_cast<double>(out.table_entries) /
                  static_cast<double>(std::max<uint64_t>(1, flooded)));
  return exact ? 0 : 1;
}
