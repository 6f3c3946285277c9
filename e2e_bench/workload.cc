#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/random.h"
#include "core/workload.h"
#include "stream/catalog.h"
#include "stream/sensor_dataset.h"

namespace cosmos::e2e {
namespace {

constexpr int kNodes = 100;
constexpr int kProcessors = 4;
constexpr int kOracleSamples = 16;
constexpr Duration kSamplingPeriod = 30 * kSecond;
// Sampling instants per churn round.
constexpr int kRoundInstants = 10;
// Correlation time of a reading, in samples (10 minutes).
constexpr double kCorrelationSamples = 20.0;

// Work per timed second of one repetition: the rates the first baseline
// measured on the reference machine (README.md), so that a repetition's
// timed phase there takes about its share of --seconds. They only size the
// inputs: a faster build replays the same work in less time.
constexpr double kSelectTuplesPerSecond = 39000.0;
constexpr double kChurnOpsPerSecond = 12.0;
constexpr double kWindowTuplesPerSecond = 12000.0;

// The overlay, the placement of processors and publishers, the query texts
// and the churn schedule are one fixed suite; the run's seed draws the user
// nodes, the sensor history and the oracle sample. The zipf-skewed mix puts
// a third of all queries into one group, so a seeded mix made every cost
// depend on which queries a seed happened to draw: over five seeds
// bytes_x_links and tuples_per_s spread 20-25% and churn_ops_per_s 70%.
constexpr uint64_t kSuiteSeed = 0xC05305;

// Per-concern streams of a seed, so each input is independent of how much
// of another one was drawn.
enum Concern : uint64_t {
  kTopology = 1,
  kPlacement = 2,
  kQueries = 3,
  kUsers = 4,
  kTuples = 5,
  kChurn = 6,
  kSample = 7,
};

struct Shape {
  int standing = 0;
  WorkloadOptions queries;
  Duration history = 0;
  int churn_ops = 0;
};

Duration HistoryFor(double tuples, int stations) {
  double periods = std::max(1.0, tuples / stations);
  return static_cast<Duration>(std::ceil(periods)) * kSamplingPeriod;
}

Shape ShapeOf(const std::string& workload, double seconds, int stations) {
  Shape s;
  if (workload == "sensor_select") {
    s.standing = 300;
    s.queries.zipf_theta = 1.5;
    s.history = HistoryFor(seconds * kSelectTuplesPerSecond, stations);
  } else if (workload == "query_churn") {
    s.standing = 200;
    s.queries.zipf_theta = 1.5;
    s.churn_ops = std::max(2, static_cast<int>(seconds * kChurnOpsPerSecond));
    s.history = static_cast<Duration>(s.churn_ops) * kRoundInstants *
                kSamplingPeriod;
  } else {  // stateful_windows
    s.standing = 200;
    s.queries.zipf_theta = 0.5;
    // NextCql draws the join first, then the aggregate among the rest:
    // 1/4 joins, 1/2 aggregates, 1/4 select-project overall.
    s.queries.join_fraction = 0.25;
    s.queries.aggregate_fraction = 0.5 / 0.75;
    s.queries.window_menu = {1 * kHour, 2 * kHour, 4 * kHour, 8 * kHour};
    s.history = HistoryFor(seconds * kWindowTuplesPerSecond, stations);
  }
  return s;
}

// Sensor readings as a stationary, mean-reverting process per attribute:
// an AR(1) walk around the middle of the attribute's range with a quarter of
// the range as its spread, clamped to the range. Each station's readings
// keep their day-to-day correlation, but every station visits its whole
// range within an hour, so a query's selectivity does not hinge on where
// one seed happened to start a station (SensorDataset's bounded walk keeps
// a station near its initial value all day, and the zipf mix reads one
// station in three queries: five seeds spread bytes_x_links by 11%).
std::vector<Tuple> SensorHistory(
    const std::vector<std::shared_ptr<const Schema>>& schemas,
    Duration history, bool stagger, Rng rng) {
  const double phi = std::exp(-1.0 / kCorrelationSamples);
  const double innovation = std::sqrt(1.0 - phi * phi);
  std::vector<Tuple> tuples;
  for (size_t k = 0; k < schemas.size(); ++k) {
    const Schema& schema = *schemas[k];
    std::vector<double> z(schema.num_attributes());
    for (double& v : z) v = rng.NextGaussian();
    const Timestamp start =
        stagger ? rng.NextInt(0, kSamplingPeriod - 1) : 0;
    for (Timestamp ts = start; ts < history; ts += kSamplingPeriod) {
      std::vector<Value> values;
      for (size_t a = 0; a < schema.num_attributes(); ++a) {
        const AttributeDef& def = schema.attribute(a);
        if (def.name == "station_id") {
          values.emplace_back(static_cast<int64_t>(k));
        } else if (def.name == "timestamp") {
          values.emplace_back(static_cast<int64_t>(ts));
        } else {
          z[a] = phi * z[a] + innovation * rng.NextGaussian();
          const double mid = (def.min + def.max) / 2;
          values.emplace_back(std::clamp(mid + z[a] * (def.max - def.min) / 4,
                                         def.min, def.max));
        }
      }
      tuples.emplace_back(schemas[k], std::move(values), ts);
    }
  }
  std::stable_sort(tuples.begin(), tuples.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.timestamp() < b.timestamp();
                   });
  return tuples;
}

std::vector<NodeId> DistinctNodes(Rng& rng, int count) {
  std::set<NodeId> picked;
  while (static_cast<int>(picked.size()) < count) {
    picked.insert(static_cast<NodeId>(rng.NextBounded(kNodes)));
  }
  return {picked.begin(), picked.end()};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "sensor_select", "query_churn", "stateful_windows"};
  return names;
}

Inputs MakeInputs(const std::string& workload, uint64_t seed,
                  double seconds) {
  const Rng root(seed);
  const Rng suite(kSuiteSeed);
  Inputs in;
  in.workload = workload;
  in.seed = seed;

  SensorDatasetOptions data;  // the paper's 63 stations and their schema
  data.sampling_period = kSamplingPeriod;
  const SensorDataset dataset(data);
  const Shape shape = ShapeOf(workload, seconds, data.num_stations);

  in.topology.num_nodes = kNodes;
  in.topology.seed = suite.Derive(kTopology).NextUint64();

  Rng placement = suite.Derive(kPlacement);
  in.processors = DistinctNodes(placement, kProcessors);
  for (int k = 0; k < data.num_stations; ++k) {
    in.publishers.push_back(
        static_cast<NodeId>(placement.NextBounded(kNodes)));
  }

  in.rate_per_station = dataset.RatePerStation();
  for (int k = 0; k < data.num_stations; ++k) {
    in.schemas.push_back(dataset.SchemaOf(k));
  }
  // A churn round holds whole sampling instants of every station, so
  // draining a round never moves the clock past the next round's tuples.
  in.tuples = SensorHistory(in.schemas, shape.history, shape.churn_ops == 0,
                            root.Derive(kTuples));

  // Queries: the generator reads stream names and attribute ranges from a
  // catalog; publisher nodes there are irrelevant.
  Catalog catalog;
  for (int k = 0; k < data.num_stations; ++k) {
    (void)catalog.RegisterStream(in.schemas[k], in.rate_per_station, k);
  }
  WorkloadOptions qopts = shape.queries;
  qopts.seed = suite.Derive(kQueries).NextUint64();
  QueryWorkloadGenerator gen(&catalog, qopts);
  Rng users = root.Derive(kUsers);
  auto next_query = [&] {
    QuerySpec q;
    q.cql = gen.NextCql();
    q.user = static_cast<NodeId>(users.NextBounded(kNodes));
    in.queries.push_back(std::move(q));
    return in.queries.size() - 1;
  };
  for (int i = 0; i < shape.standing; ++i) next_query();
  in.standing = in.queries.size();

  // Churn: alternate removing a random live query and submitting a fresh
  // one; each operation is followed by one round of tuples.
  Rng churn = suite.Derive(kChurn);
  std::vector<size_t> live(in.standing);
  for (size_t i = 0; i < live.size(); ++i) live[i] = i;
  size_t cursor = 0;
  for (int op = 0; op < shape.churn_ops; ++op) {
    ChurnOp c;
    c.remove = op % 2 == 0;
    if (c.remove) {
      size_t pos = churn.NextBounded(live.size());
      c.query = live[pos];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pos));
    } else {
      c.query = next_query();
      live.push_back(c.query);
    }
    const Timestamp round_end =
        static_cast<Timestamp>(op + 1) * kRoundInstants * kSamplingPeriod;
    c.round_begin = cursor;
    while (cursor < in.tuples.size() &&
           in.tuples[cursor].timestamp() < round_end) {
      ++cursor;
    }
    c.round_end = cursor;
    in.churn.push_back(c);
  }

  Rng sample = root.Derive(kSample);
  std::set<size_t> sampled;
  const size_t want = std::min<size_t>(kOracleSamples, in.queries.size());
  while (sampled.size() < want) {
    sampled.insert(sample.NextBounded(in.queries.size()));
  }
  in.sampled.assign(sampled.begin(), sampled.end());
  return in;
}

}  // namespace cosmos::e2e
