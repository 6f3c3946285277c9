#ifndef COSMOS_STREAM_SCHEMA_H_
#define COSMOS_STREAM_SCHEMA_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stream/value.h"

namespace cosmos {

// One attribute (column) of a stream schema.
struct AttributeDef {
  std::string name;
  ValueType type = ValueType::kNull;
  // Optional value range for numeric attributes; drives selectivity
  // estimation in the query-merging benefit model and the workload
  // generators. Ignored for strings/bools.
  double min = 0.0;
  double max = 0.0;
  bool has_range = false;

  AttributeDef() = default;
  AttributeDef(std::string n, ValueType t) : name(std::move(n)), type(t) {}
  AttributeDef(std::string n, ValueType t, double lo, double hi)
      : name(std::move(n)), type(t), min(lo), max(hi), has_range(true) {}
};

// Schema of a named stream: an ordered attribute list with by-name lookup.
// Every stream implicitly carries a "timestamp" attribute (kInt64,
// microseconds) — conventionally the last attribute; the constructors do NOT
// add it automatically, datasets declare it explicitly.
class Schema {
 public:
  Schema() = default;
  Schema(std::string stream_name, std::vector<AttributeDef> attributes);

  const std::string& stream_name() const { return stream_name_; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }
  size_t num_attributes() const { return attributes_.size(); }

  // Index of `name`, or nullopt if absent.
  std::optional<size_t> IndexOf(const std::string& name) const;
  bool HasAttribute(const std::string& name) const {
    return IndexOf(name).has_value();
  }
  const AttributeDef& attribute(size_t i) const { return attributes_[i]; }

  Result<AttributeDef> FindAttribute(const std::string& name) const;

  // Sum of the fixed serialized sizes of the attributes (strings counted at
  // an assumed 16-byte average payload); used for rate estimation.
  size_t EstimatedRowWidth() const;

  // e.g. "OpenAuction(itemID:int64, start_price:double, timestamp:int64)"
  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  std::string stream_name_;
  std::vector<AttributeDef> attributes_;
  std::unordered_map<std::string, size_t> index_;
};

// What a per-schema cache keeps for each input schema it has seen (a CBN
// bucket's projection plans, a matcher's column offsets, an SPE operator's
// column mapping or bound predicate), found by schema address. An entry
// holds its schema, so no other schema can take that address while the
// entry lives. A miss first drops the entries whose schema only this memo
// still holds: such a schema can never arrive again, so one retired by
// churn is freed instead of piling up.
template <typename T>
class SchemaMemo {
 public:
  // The entry for `schema`, made by `make()` on a miss. The reference stays
  // valid until the next miss.
  template <typename Make>
  T& Get(const std::shared_ptr<const Schema>& schema, Make make) {
    for (auto& [held, value] : entries_) {
      if (held.get() == schema.get()) return value;
    }
    std::erase_if(entries_, [](const auto& entry) {
      return entry.first.use_count() == 1;
    });
    return entries_.emplace_back(schema, make()).second;
  }

  // Calls `f` on every entry's value.
  template <typename F>
  void ForEach(F f) {
    for (auto& entry : entries_) f(entry.second);
  }

  size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::shared_ptr<const Schema>, T>> entries_;
};

}  // namespace cosmos

#endif  // COSMOS_STREAM_SCHEMA_H_
