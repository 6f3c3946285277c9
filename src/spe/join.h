#ifndef COSMOS_SPE_JOIN_H_
#define COSMOS_SPE_JOIN_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "spe/operator.h"

namespace cosmos {

// Symmetric sliding-window join of n >= 2 streams with CQL semantics
// (Lemma 1 of the paper, generalized): a combination (t_1, ..., t_n), one
// tuple per input port, joins iff
//   (1) every equi-key constraint holds,
//   (2) the residual predicate holds on the concatenated tuple, and
//   (3) tau - t_i.timestamp <= T_i for every port i, where
//       tau = max_j t_j.timestamp is the result's event time.
// At n = 2, (3) is Lemma 1's -T1 <= t1.timestamp - t2.timestamp <= T2.
// [Now] windows (T = 0) admit only components as new as tau; unbounded
// windows never evict.
//
// Each port's input must arrive in event-time order, but ports may
// interleave arbitrarily (streams reach a processor over paths of different
// delay). A combination is emitted once, when its last component arrives,
// so the results do not depend on the cross-port arrival order. Buffer j
// drops a tuple only when it is more than T_j older than the smallest
// latest-seen timestamp among the other ports: every later combination
// holds a later arrival from one of them, which bounds tau from below.
//
// Each arriving port binds the other ports in a fixed order chosen at
// construction. A port tied by equi-keys to ports already bound is probed
// through a hash index on those key attributes; an untied port is scanned.
// Condition (3) prunes pairwise as each port is bound.
//
// The output schema must be MakeConcatenatedSchema of the inputs in port
// order; the output timestamp is tau.
class WindowJoinOperator final : public Operator {
 public:
  // An equi-join constraint between two ports' attributes (indexes into
  // the respective input schemas).
  struct KeyConstraint {
    size_t left_port = 0;
    size_t left_attr = 0;
    size_t right_port = 0;
    size_t right_attr = 0;
  };

  // One window per input port. `keys` may be empty (pure temporal cross
  // join); `residual` is evaluated on the joined tuple (alias-qualified
  // names) and may be null.
  WindowJoinOperator(std::vector<Duration> windows,
                     std::vector<KeyConstraint> keys, ExprPtr residual,
                     std::shared_ptr<const Schema> output_schema);

  void Push(size_t port, const Tuple& tuple) override;

  size_t buffer_size(size_t port) const { return ports_[port].tuples.size(); }

 private:
  // A hash index over one port's buffer, keyed on `attrs`.
  struct Index {
    std::vector<size_t> attrs;
    std::unordered_multimap<size_t, uint64_t> seqs;  // key hash -> seq
  };

  // One port's window. Tuples are addressed by monotonically increasing
  // sequence numbers so index entries survive front eviction
  // (seq - base = deque position).
  struct Port {
    Duration window = kInfiniteDuration;
    Timestamp latest = kInvalidTimestamp;
    std::deque<Tuple> tuples;
    uint64_t base = 0;
    std::vector<Index> indexes;
  };

  // An attribute of a port bound earlier in the probe.
  struct BoundAttr {
    size_t port = 0;
    size_t attr = 0;
  };

  // Binding one port during a probe: candidates come from
  // `ports_[port].indexes[index]`, looked up by the values of `key`
  // (parallel to that index's attrs), or from a scan when `key` is empty.
  struct Step {
    size_t port = 0;
    size_t index = 0;
    std::vector<BoundAttr> key;
  };

  // The index of `port` keyed on `attrs`, created on first request.
  size_t IndexFor(size_t port, const std::vector<size_t>& attrs);
  void Insert(size_t port, const Tuple& tuple);
  // Drops the tuples of `port` older than `floor` - T.
  void Evict(size_t port, Timestamp floor);
  // Binds steps[depth..] onto chosen_; `tau` is the newest timestamp bound
  // so far and `deadline` the newest tau every bound tuple's window allows.
  void Bind(const std::vector<Step>& steps, size_t depth, Timestamp tau,
            Timestamp deadline);
  void EmitCombination(Timestamp tau);

  std::vector<Port> ports_;
  // Per arriving port: the order in which the other ports are bound.
  std::vector<std::vector<Step>> probe_orders_;
  LazyPredicate residual_;
  std::shared_ptr<const Schema> output_schema_;
  // The combination being bound, one tuple per port.
  std::vector<const Tuple*> chosen_;
};

}  // namespace cosmos

#endif  // COSMOS_SPE_JOIN_H_
