#include "spe/join.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cosmos {
namespace {

constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();
constexpr size_t kHashBasis = 0xCBF29CE484222325ULL;
constexpr size_t kHashPrime = 0x100000001B3ULL;

// The newest tau at which a tuple stamped `ts` is still inside `window`.
Timestamp Deadline(Timestamp ts, Duration window) {
  return window == kInfiniteDuration ? kNever : ts + window;
}

// Value::Hash makes equal cross-type numerics collide, so equal keys always
// share a bucket whichever side computes the hash.
size_t HashStep(size_t h, const Value& v) {
  return (h ^ v.Hash()) * kHashPrime;
}

size_t KeyHash(const Tuple& t, const std::vector<size_t>& attrs) {
  size_t h = kHashBasis;
  for (size_t a : attrs) h = HashStep(h, t.value(a));
  return h;
}

}  // namespace

WindowJoinOperator::WindowJoinOperator(
    std::vector<Duration> windows, std::vector<KeyConstraint> keys,
    ExprPtr residual, std::shared_ptr<const Schema> output_schema)
    : ports_(windows.size()),
      probe_orders_(windows.size()),
      residual_(std::move(residual)),
      output_schema_(std::move(output_schema)),
      chosen_(windows.size(), nullptr) {
  const size_t n = windows.size();
  COSMOS_CHECK_GE(n, 2u) << "a window join needs >= 2 inputs";
  for (size_t p = 0; p < n; ++p) ports_[p].window = windows[p];
  for (const KeyConstraint& k : keys) {
    COSMOS_CHECK(k.left_port < n && k.right_port < n &&
                 k.left_port != k.right_port)
        << "key constraint between ports " << k.left_port << " and "
        << k.right_port;
  }

  // Probe order per arriving port: bind next the lowest-numbered port tied
  // by a key to the bound ones (probed through an index on those keys),
  // else the lowest-numbered unbound port (scanned).
  for (size_t arrival = 0; arrival < n; ++arrival) {
    std::vector<bool> bound(n, false);
    bound[arrival] = true;
    for (size_t bound_count = 1; bound_count < n; ++bound_count) {
      Step step;
      std::vector<size_t> attrs;
      bool picked = false;
      for (size_t q = 0; q < n; ++q) {
        if (bound[q]) continue;
        std::vector<size_t> q_attrs;
        std::vector<BoundAttr> q_key;
        for (const KeyConstraint& k : keys) {
          if (k.left_port == q && bound[k.right_port]) {
            q_attrs.push_back(k.left_attr);
            q_key.push_back({k.right_port, k.right_attr});
          } else if (k.right_port == q && bound[k.left_port]) {
            q_attrs.push_back(k.right_attr);
            q_key.push_back({k.left_port, k.left_attr});
          }
        }
        if (!picked || (step.key.empty() && !q_key.empty())) {
          picked = true;
          step.port = q;
          step.key = std::move(q_key);
          attrs = std::move(q_attrs);
        }
      }
      if (!step.key.empty()) step.index = IndexFor(step.port, attrs);
      bound[step.port] = true;
      probe_orders_[arrival].push_back(std::move(step));
    }
  }
}

size_t WindowJoinOperator::IndexFor(size_t port,
                                    const std::vector<size_t>& attrs) {
  std::vector<Index>& indexes = ports_[port].indexes;
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i].attrs == attrs) return i;
  }
  indexes.push_back(Index{attrs, {}});
  return indexes.size() - 1;
}

void WindowJoinOperator::Insert(size_t port, const Tuple& tuple) {
  Port& p = ports_[port];
  const uint64_t seq = p.base + p.tuples.size();
  p.tuples.push_back(tuple);
  for (Index& index : p.indexes) {
    index.seqs.emplace(KeyHash(tuple, index.attrs), seq);
  }
}

void WindowJoinOperator::Evict(size_t port, Timestamp floor) {
  Port& p = ports_[port];
  if (p.window == kInfiniteDuration || floor == kInvalidTimestamp) return;
  const Timestamp cutoff = floor - p.window;
  while (!p.tuples.empty() && p.tuples.front().timestamp() < cutoff) {
    for (Index& index : p.indexes) {
      auto [begin, end] =
          index.seqs.equal_range(KeyHash(p.tuples.front(), index.attrs));
      for (auto it = begin; it != end; ++it) {
        if (it->second == p.base) {
          index.seqs.erase(it);
          break;
        }
      }
    }
    p.tuples.pop_front();
    ++p.base;
  }
}

void WindowJoinOperator::Bind(const std::vector<Step>& steps, size_t depth,
                              Timestamp tau, Timestamp deadline) {
  if (depth == steps.size()) {
    EmitCombination(tau);
    return;
  }
  const Step& step = steps[depth];
  const Port& port = ports_[step.port];
  // Condition (3) over the bound ports: tau may not pass any deadline.
  auto bind = [&](const Tuple& t) {
    const Timestamp next_tau = std::max(tau, t.timestamp());
    const Timestamp next_deadline =
        std::min(deadline, Deadline(t.timestamp(), port.window));
    if (next_tau > next_deadline) return;
    chosen_[step.port] = &t;
    Bind(steps, depth + 1, next_tau, next_deadline);
  };

  if (step.key.empty()) {
    for (const Tuple& t : port.tuples) bind(t);
    return;
  }
  const Index& index = port.indexes[step.index];
  size_t h = kHashBasis;
  for (const BoundAttr& b : step.key) {
    h = HashStep(h, chosen_[b.port]->value(b.attr));
  }
  auto [begin, end] = index.seqs.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    const Tuple& t = port.tuples[static_cast<size_t>(it->second - port.base)];
    bool equal = true;
    for (size_t i = 0; i < step.key.size() && equal; ++i) {
      const BoundAttr& b = step.key[i];
      auto cmp =
          t.value(index.attrs[i]).Compare(chosen_[b.port]->value(b.attr));
      equal = cmp.ok() && *cmp == 0;
    }
    if (equal) bind(t);
  }
}

void WindowJoinOperator::EmitCombination(Timestamp tau) {
  std::vector<Value> values;
  values.reserve(output_schema_->num_attributes());
  for (const Tuple* t : chosen_) {
    values.insert(values.end(), t->values().begin(), t->values().end());
  }
  Tuple joined(output_schema_, std::move(values), tau);
  if (!residual_.has_expr() || residual_.Matches(joined)) Emit(joined);
}

void WindowJoinOperator::Push(size_t port, const Tuple& tuple) {
  COSMOS_CHECK_LT(port, ports_.size());
  Timestamp& latest = ports_[port].latest;
  latest = std::max(latest, tuple.timestamp());
  // Buffer j's eviction floor: the smallest latest-seen timestamp among the
  // ports other than j.
  for (size_t j = 0; j < ports_.size(); ++j) {
    if (j == port) continue;
    Timestamp floor = kNever;
    for (size_t k = 0; k < ports_.size(); ++k) {
      if (k != j) floor = std::min(floor, ports_[k].latest);
    }
    Evict(j, floor);
  }
  chosen_[port] = &tuple;
  Bind(probe_orders_[port], 0, tuple.timestamp(),
       Deadline(tuple.timestamp(), ports_[port].window));
  Insert(port, tuple);
}

}  // namespace cosmos
