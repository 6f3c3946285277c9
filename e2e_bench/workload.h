#ifndef COSMOS_E2E_BENCH_WORKLOAD_H_
#define COSMOS_E2E_BENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "overlay/graph.h"
#include "overlay/topology.h"
#include "stream/schema.h"
#include "stream/tuple.h"

namespace cosmos::e2e {

// One user query: CQL text and the overlay node the user sits at.
struct QuerySpec {
  std::string cql;
  NodeId user = 0;
};

// One control operation of the query_churn loop. After the operation the
// caller publishes tuples [round_begin, round_end) and drains the network.
struct ChurnOp {
  bool remove = false;
  size_t query = 0;  // index into Inputs::queries
  size_t round_begin = 0;
  size_t round_end = 0;
};

// Everything a run feeds the system, generated up front from the seed and
// the benchmark's fixed suite (see workload.cc). The system under test
// receives only these inputs.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  TopologyOptions topology;  // regenerated inside the timed set-up
  std::vector<NodeId> processors;
  std::vector<std::shared_ptr<const Schema>> schemas;  // index = station
  std::vector<NodeId> publishers;                       // index = station
  double rate_per_station = 0.0;
  // Standing population first (installed in set-up), then the queries the
  // churn loop submits, in submission order.
  std::vector<QuerySpec> queries;
  size_t standing = 0;
  std::vector<ChurnOp> churn;  // query_churn only
  std::vector<Tuple> tuples;   // event-time order
  // Indices into `queries` whose results are checked against the oracle.
  std::vector<size_t> sampled;
};

// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Builds the inputs of `workload` for `seed`. `seconds` is the timed budget
// of one repetition; it sets how much history (or how many churn
// operations) the repetition replays, so a run's work is fixed by its
// arguments and never by how fast the machine happens to be.
Inputs MakeInputs(const std::string& workload, uint64_t seed, double seconds);

}  // namespace cosmos::e2e

#endif  // COSMOS_E2E_BENCH_WORKLOAD_H_
