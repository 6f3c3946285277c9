#ifndef COSMOS_CBN_ROUTER_H_
#define COSMOS_CBN_ROUTER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbn/routing_table.h"
#include "telemetry/registry.h"

namespace cosmos {

// Delivery callback of a local subscriber: receives the (possibly
// projected) tuple of `stream`.
using DeliveryCallback =
    std::function<void(const std::string& stream, const Tuple& tuple)>;

// One CBN node: the per-link routing table plus local subscriptions.
// Forwarding decisions are made here; the Network drives the hop-by-hop
// traversal and accounts link bytes.
class Router {
 public:
  // `streams` and `links` as for RoutingTable: the network's shared
  // interner (nullptr: a router-owned one) and the node's tree neighbors.
  explicit Router(NodeId id = -1, std::shared_ptr<StreamIds> streams = nullptr,
                  std::vector<NodeId> links = {});

  NodeId id() const { return id_; }
  RoutingTable& table() { return table_; }
  const RoutingTable& table() const { return table_; }
  const std::shared_ptr<StreamIds>& streams() const {
    return table_.streams();
  }

  void AddLocal(ProfileId id, ProfilePtr profile, DeliveryCallback callback);
  bool RemoveLocal(ProfileId id);
  const std::vector<std::pair<ProfileId, ProfilePtr>>& local_profiles() const {
    return local_profiles_;
  }

  // Delivers `payload`, a tuple of `stream`, to every matching local
  // subscriber, applying the subscriber's exact projection set P
  // (last-hop projection, paper §3.1). Only subscribers of `stream` are
  // evaluated. Returns the number of deliveries.
  size_t DeliverLocal(StreamId stream, const Payload& payload);

  // One forwarding decision on `bucket`'s link: null when no profile
  // matches; else the payload to put on the wire. That is `payload` itself
  // when the projection keeps every attribute (or `early_projection` is
  // off), and otherwise a new payload from `pool`, early-projected to the
  // union of the matching profiles' required attributes.
  PayloadRef Forward(const RoutingTable::StreamBucket& bucket,
                     const PayloadRef& payload, bool early_projection,
                     PayloadPool& pool) const;

  // Attaches (nullptr: detaches) matcher instruments in `metrics`:
  // cbn.matcher_compiles (bucket/local compilations), cbn.matcher_fallbacks
  // (residual evaluations behind the counting stage) and cbn.match_ns.
  // Handles are cached; the histogram samples every 64th match so timing
  // cannot erode the telemetry throughput budget.
  void SetTelemetry(MetricsRegistry* metrics);

 private:
  // A local subscriber of one stream with its last-hop projection plans,
  // one per input schema seen.
  struct LocalSubscriber {
    size_t index = 0;  // into local_profiles_
    SchemaMemo<ProjectionPlan> plans;
  };
  // The local subscribers of one stream and their compiled matcher (built
  // on first use, dropped on any change to the list).
  struct LocalStream {
    std::vector<LocalSubscriber> subscribers;
    std::unique_ptr<CompiledMatcher> matcher;
  };

  void IndexLocal(size_t index);
  const CompiledMatcher& LocalMatcher(LocalStream& ls,
                                      const std::string& stream);
  // The last-hop plan of `sub`, a subscriber of `stream`, for tuples of
  // `input`.
  const ProjectionPlan& LastHopPlan(LocalSubscriber& sub,
                                    const std::string& stream,
                                    const std::shared_ptr<const Schema>& input);

  // Runs `m` over `tuple` into `*hits` with sampled timing and fallback
  // accounting.
  void MatchCompiled(const CompiledMatcher& m, const Tuple& tuple,
                     std::vector<uint32_t>* hits) const;

  NodeId id_;
  RoutingTable table_;
  std::vector<std::pair<ProfileId, ProfilePtr>> local_profiles_;
  std::vector<DeliveryCallback> local_callbacks_;
  // StreamId -> the local subscribers of that stream.
  std::unordered_map<StreamId, LocalStream> local_by_stream_;
  Counter* matcher_compiles_ = nullptr;
  Counter* matcher_fallbacks_ = nullptr;
  Histogram* match_time_ns_ = nullptr;
  mutable uint64_t match_sample_ = 0;
  // Scratch for Forward (single-threaded per node, like the table).
  mutable CompiledMatcher::Scratch matcher_scratch_;
  mutable std::vector<uint32_t> hit_scratch_;
  // DeliverLocal's hit buffer is swapped out while subscriber callbacks
  // run: a callback that publishes re-enters matching on this router, and
  // the nested Match must not clobber the list being delivered.
  std::vector<uint32_t> local_hit_scratch_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_ROUTER_H_
