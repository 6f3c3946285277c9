#ifndef COSMOS_E2E_BENCH_LAYERS_H_
#define COSMOS_E2E_BENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "cbn/profile.h"
#include "overlay/dissemination_tree.h"
#include "spans.h"
#include "stream/catalog.h"
#include "workload.h"

namespace cosmos::e2e {

// One SubmitQuery or RemoveQuery the run made, in call order.
struct OpRecord {
  bool remove = false;
  size_t query = 0;  // index into Inputs::queries
  std::string id;    // the system's query id
  NodeId home = -1;  // processor that hosted the query
};

// A group representative installed at the end of the timed phase.
struct Representative {
  NodeId node = -1;
  std::string cql;
  std::string result_stream;
  std::vector<std::string> source_streams;
};

// What a traced run captured from the live system for the isolated layer
// replays. Every replay drives a module's public API on its own, so its
// time is that layer's share with no other layer in the loop.
struct LayerInputs {
  const Inputs* inputs = nullptr;
  const Catalog* catalog = nullptr;
  const DisseminationTree* tree = nullptr;
  std::vector<OpRecord> ops;
  std::vector<std::pair<NodeId, Profile>> subscriptions;
  std::vector<Representative> representatives;
  uint64_t sim_events = 0;
  size_t queue_depth_max = 0;
};

// Per-call times of the isolated replays. Vectors indexed by op hold NaN
// where the op has no such call (a remove is never parsed).
struct LayerTimes {
  std::vector<double> parse_us;        // per op
  std::vector<double> group_us;        // per op: AddQuery or RemoveQuery
  std::vector<double> teardown_us;     // RemoveQuery of the queries left
  std::vector<double> subscribe_us;    // per captured subscription
  double spe_seconds = 0.0;            // every source tuple, all processors
  double publish_seconds = 0.0;        // source tuples + SPE result datagrams
  double sim_event_ns = 0.0;
};

LayerTimes ReplayLayers(const LayerInputs& in, SpanRecorder& spans);

}  // namespace cosmos::e2e

#endif  // COSMOS_E2E_BENCH_LAYERS_H_
