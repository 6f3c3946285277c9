#include "telemetry/registry.h"

#include <bit>

namespace cosmos {

void Histogram::Observe(uint64_t v) {
  size_t bucket = static_cast<size_t>(v);
  if (v >= 8) {
    const int w = std::bit_width(v);
    bucket = 4 * static_cast<size_t>(w - 2) +
             static_cast<size_t>((v >> (w - 3)) & 3);
  }
  ++buckets_[bucket];
  ++count_;
  sum_ += v;
  if (v > max_) max_ = v;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i < 8) return i;
  // Bucket i covers [(4 + sub) << shift, (5 + sub) << shift).
  const size_t shift = i / 4 - 1;
  const uint64_t sub = i % 4;
  return ((4 + sub) << shift) + ((uint64_t{1} << shift) - 1);
}

uint64_t Histogram::PercentileUpperBound(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count_);
  uint64_t below = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    below += buckets_[i];
    if (static_cast<double>(below) >= target) return BucketUpperBound(i);
  }
  return BucketUpperBound(kBuckets - 1);
}

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::LabeledName(const std::string& name,
                                         const std::string& label_key,
                                         const std::string& label_value) {
  std::string out;
  out.reserve(name.size() + label_key.size() + label_value.size() + 3);
  out += name;
  out += '{';
  out += label_key;
  out += '=';
  out += label_value;
  out += '}';
  return out;
}

std::string MetricsRegistry::LabelValue(const std::string& name,
                                        const std::string& key) {
  const std::string needle = "{" + key + "=";
  size_t start = name.find(needle);
  if (start == std::string::npos) return "";
  start += needle.size();
  size_t end = name.find('}', start);
  if (end == std::string::npos) return "";
  return name.substr(start, end - start);
}

std::vector<std::string> MetricsRegistry::CounterNamesWithLabel(
    const std::string& key) const {
  std::vector<std::string> out;
  const std::string needle = "{" + key + "=";
  for (const auto& [name, c] : counters_) {
    if (name.find(needle) != std::string::npos) out.push_back(name);
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace cosmos
