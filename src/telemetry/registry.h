#ifndef COSMOS_TELEMETRY_REGISTRY_H_
#define COSMOS_TELEMETRY_REGISTRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cosmos {

// Telemetry instruments. Designed for the forwarding hot path: an update is
// a plain uint64_t/double store with no locking (the whole system is
// single-threaded per simulation, like the routers). Instruments are created
// once through the MetricsRegistry and the returned handles cached by the
// instrumented component, so steady-state cost is one pointer-indirected
// add — cheap enough to leave on everywhere.

// Monotonically increasing event count (datagrams forwarded, tuples
// pushed, ...). Reset only through the registry (snapshot deltas are the
// supported way to read rates).
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Last-write-wins instantaneous value (tree cost, queue depth, drift).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Histogram of non-negative integer observations (bytes per datagram,
// tuples per evaluation, nanoseconds per match) with log-linear buckets:
// each power-of-two octave splits into 4 equal sub-buckets, so a bucket's
// upper bound is within 25% of any value in it. Values 0-7 get a bucket
// each; from 8 up, value v with w = bit_width(v) lands in bucket
// 4 * (w - 2) + (the two bits of v below its top bit).
class Histogram {
 public:
  static constexpr size_t kBuckets = 252;

  void Observe(uint64_t v);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  // Upper bound (inclusive) of bucket `i`.
  static uint64_t BucketUpperBound(size_t i);

  // Smallest bucket upper bound with >= p (in [0,1]) of the mass at or
  // below it; 0 when empty. A quantile exact to the bucket width: at most
  // 25% above the true value.
  uint64_t PercentileUpperBound(double p) const;

  void Reset();

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// The instrument registry: a name -> instrument map with stable handles
// (instruments are heap-allocated once and never move or disappear).
// Labeled families use the conventional rendering `name{key=value}` as the
// registered name, e.g. cbn.forwarded_bytes{stream=sensor_00}; callers that
// update one per datagram cache the handle per label instead of re-keying.
//
// A process-wide instance is available via MetricsRegistry::Global() for
// tools and examples; components take a MetricsRegistry* so tests and the
// DST harness can give every run an isolated registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Counter* GetCounter(const std::string& name, const std::string& label_key,
                      const std::string& label_value) {
    return GetCounter(LabeledName(name, label_key, label_value));
  }
  Gauge* GetGauge(const std::string& name);
  Gauge* GetGauge(const std::string& name, const std::string& label_key,
                  const std::string& label_value) {
    return GetGauge(LabeledName(name, label_key, label_value));
  }
  Histogram* GetHistogram(const std::string& name);

  // Lookup without creating (nullptr when absent) — for tests and checks.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // `name{key=value}`.
  static std::string LabeledName(const std::string& name,
                                 const std::string& label_key,
                                 const std::string& label_value);
  // The `value` of label `key` in a LabeledName-rendered `name`, or "" when
  // the name carries no such label.
  static std::string LabelValue(const std::string& name,
                                const std::string& key);

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms()
      const {
    return histograms_;
  }

  // Names (sorted) of counters carrying label `key` with any value, e.g.
  // every per-stream member of a family.
  std::vector<std::string> CounterNamesWithLabel(
      const std::string& key) const;

  size_t num_instruments() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Zeroes every instrument; handles stay valid.
  void ResetAll();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cosmos

#endif  // COSMOS_TELEMETRY_REGISTRY_H_
