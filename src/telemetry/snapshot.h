#ifndef COSMOS_TELEMETRY_SNAPSHOT_H_
#define COSMOS_TELEMETRY_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "telemetry/registry.h"

namespace cosmos {

// A point-in-time copy of every instrument in a MetricsRegistry, plus the
// delta algebra the DST harness and the end-to-end benchmark read rates
// from. (The SelfTuner reads only the CBN's publish counters, through
// ContentBasedNetwork::published_by_stream().)
struct MetricsSnapshot {
  Timestamp at = 0;  // virtual time of the capture

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;

  struct HistogramValue {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    // (bucket upper bound, count), non-empty buckets only.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };
  std::map<std::string, HistogramValue> histograms;

  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  // Counter rate between `earlier` and this snapshot, in units/second of
  // virtual time (0 when the interval is empty or the counter regressed).
  double CounterRate(const MetricsSnapshot& earlier,
                     const std::string& name) const;
};

MetricsSnapshot TakeSnapshot(const MetricsRegistry& registry, Timestamp at);

// later - earlier: counters and histogram counts subtract (clamped at 0),
// gauges keep `later`'s value (they are instantaneous), `at` keeps later's
// timestamp. Instruments absent from `earlier` count from zero.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& later,
                              const MetricsSnapshot& earlier);

// Renders a snapshot as a stable, pretty-printed JSON document.
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

// Periodic capture series: the caller (a simulator callback or a test)
// invokes Capture at its chosen cadence; the series keeps every snapshot
// and serves deltas between consecutive ones.
class SnapshotSeries {
 public:
  explicit SnapshotSeries(const MetricsRegistry* registry)
      : registry_(registry) {}

  const MetricsSnapshot& Capture(Timestamp at);

  size_t size() const { return snapshots_.size(); }
  const std::vector<MetricsSnapshot>& snapshots() const { return snapshots_; }
  const MetricsSnapshot& latest() const { return snapshots_.back(); }

  // Delta between the last two captures (or from zero for a single one).
  MetricsSnapshot LatestDelta() const;

  // JSON array of every captured snapshot.
  std::string ToJson() const;

 private:
  const MetricsRegistry* registry_;
  std::vector<MetricsSnapshot> snapshots_;
};

}  // namespace cosmos

#endif  // COSMOS_TELEMETRY_SNAPSHOT_H_
