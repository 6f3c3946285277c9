#ifndef COSMOS_CBN_NETWORK_H_
#define COSMOS_CBN_NETWORK_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cbn/router.h"
#include "overlay/dissemination_tree.h"
#include "overlay/graph.h"
#include "sim/simulator.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace cosmos {

// Per-link transfer statistics — the communication-cost model of every
// experiment (bytes and datagrams that crossed the link, in either
// direction).
struct LinkStats {
  uint64_t datagrams = 0;
  uint64_t bytes = 0;
};

// Tuples and serialized bytes published on one stream.
struct StreamTraffic {
  uint64_t tuples = 0;
  uint64_t bytes = 0;
};
using TrafficByStream = std::map<std::string, StreamTraffic>;

// Per-stream growth from `earlier` to `later` (two readings of
// ContentBasedNetwork::published_by_stream()); streams that published
// nothing in between are omitted.
TrafficByStream TrafficSince(const TrafficByStream& later,
                             const TrafficByStream& earlier);

struct NetworkOptions {
  // Early projection (paper §3.1 extension). Off reproduces a traditional
  // filter-only CBN (ablation abl-proj).
  bool early_projection = true;
  // Buffer datagrams that would cross a failed link and flush them after
  // Repair() (data-layer high availability, paper §2's fault-tolerance
  // module of the data layer). Off counts them lost (ablation abl-ft).
  bool buffer_on_failure = true;
};

// The content-based network: routers on every node of a dissemination tree.
// Publishers advertise their streams (paper §2), and a subscription's
// profile is installed only on the tree paths from the advertised
// publishers of its streams to the subscriber. Publishing forwards the
// datagram along the tree links whose entries cover it (reverse-path
// content routing).
//
// When a Simulator is attached, forwarding hops are scheduled with the link
// delay (edge weight, interpreted as milliseconds); otherwise delivery is
// synchronous and immediate.
class ContentBasedNetwork {
 public:
  explicit ContentBasedNetwork(DisseminationTree tree,
                               NetworkOptions options = {},
                               Simulator* sim = nullptr);

  const DisseminationTree& tree() const { return *tree_; }
  int num_nodes() const { return tree_->num_nodes(); }

  // Declares that `node` publishes `stream` (idempotent) and installs the
  // entries of existing subscriptions to `stream` along the paths from
  // `node` to their subscribers. Publish() advertises on first use, so an
  // explicit call only installs the routes before the first datagram.
  void Advertise(NodeId node, const std::string& stream);

  // Installs `profile` for a subscriber at `node`; `callback` fires on each
  // delivered tuple. Returns the profile id (for Unsubscribe).
  ProfileId Subscribe(NodeId node, Profile profile,
                      DeliveryCallback callback);

  // Removes the subscription's local delivery and every routing entry it
  // installed. False when `id` is unknown.
  bool Unsubscribe(ProfileId id);

  // Publishes a datagram from `node` (a source or a processor emitting a
  // result stream), advertising the stream from `node` first if needed.
  // Returns the number of local deliveries performed (synchronous mode) or
  // scheduled so far (simulated mode).
  size_t Publish(NodeId node, const Datagram& datagram);

  // ---- fault tolerance (data-layer module of paper Figure 2) ----

  // Takes the tree link (u,v) down. Traffic that would cross it is counted
  // lost — or buffered for post-repair flushing when buffer_on_failure.
  Status FailLink(NodeId u, NodeId v);

  bool HasFailedLinks() const { return !failed_links_.empty(); }
  const std::set<std::pair<NodeId, NodeId>>& failed_links() const {
    return failed_links_;
  }

  // Repairs every failed link by splicing in the cheapest overlay edge
  // across each cut, rebuilding all routing state from the subscription
  // registry and flushing buffered datagrams. `overlay` must contain the
  // current tree's surviving edges.
  Status Repair(const Graph& overlay);

  // Replaces the dissemination tree wholesale (the overlay optimizer's
  // reorganization path): rebuilds every router's state from the
  // subscription registry. Fails if `tree` has a different node count.
  // After Repair() or RebuildTree(), a hop still in flight on the old tree
  // re-enters at its publisher on landing and delivers only to the nodes
  // it still owed (counted as recovery traffic).
  Status RebuildTree(DisseminationTree tree);

  // ---- statistics ----
  //
  // Views over the ledger: the network's registry counters (see
  // SetTelemetry) are the only record of its traffic.
  std::map<std::pair<NodeId, NodeId>, LinkStats> link_stats() const;
  // cbn.forwarded_bytes / cbn.forwards: steady-state link traffic (flush
  // retransmissions are counted in cbn.recovery_forwards instead).
  uint64_t total_bytes() const { return forwarded_bytes_counter_->value(); }
  uint64_t total_datagrams_forwarded() const {
    return forwards_counter_->value();
  }
  // cbn.deliveries, steady state and recovery.
  uint64_t total_deliveries() const { return deliveries_counter_->value(); }
  // Sum over links of bytes × link weight (delay-weighted traffic).
  double WeightedBytes() const;
  // Subscription control messages sent during propagation.
  uint64_t control_messages() const { return control_counter_->value(); }
  // Datagram forwards dropped at failed links (buffered ones not counted):
  // the sum of cbn.dropped.
  uint64_t lost_datagrams() const;
  uint64_t buffered_datagrams() const { return buffered_.size(); }
  // Buffered datagrams delivered into the cut-off component after Repair:
  // the sum of cbn.flushed.
  uint64_t recovered_datagrams() const;
  // Sum of routing-table entries across all nodes (memory cost of
  // subscription state: one per subscription per link on its publisher
  // paths).
  size_t TotalTableEntries() const;
  // Zeroes every counter of the network's ledger.
  void ResetStats();

  const Router& router(NodeId node) const { return routers_[node]; }
  const std::set<NodeId>* PublishersOf(const std::string& stream) const;

  // ---- telemetry ----

  // Moves the ledger into `metrics` (nullptr: a registry the network owns)
  // and records Chrome-trace slices for every hop and delivery in `tracer`
  // (nullptr: off). Counters are stream-labeled families plus per-link and
  // total counts; routers get matcher instruments only from an attached
  // registry. Handles are cached here once, so the steady-state cost per
  // hop is plain adds. Must be called before anything is counted.
  void SetTelemetry(MetricsRegistry* metrics, Tracer* tracer);

  // Cumulative tuples and serialized bytes published per stream
  // (cbn.published, cbn.published_bytes): the one source of measured rates
  // (SelfTuner rounds, CosmosSystem::CalibrateRates).
  TrafficByStream published_by_stream() const;

  // Visits every live subscription as (subscriber node, profile).
  void ForEachSubscription(
      const std::function<void(NodeId, const Profile&)>& fn) const;

 private:
  struct Subscription {
    NodeId node = -1;
    ProfilePtr profile;
    DeliveryCallback callback;
  };

  // Where a datagram entered the network: its publisher and its place in
  // the network's publish order. Rides along every hop, so a copy buffered
  // at a failed link can re-enter at its publisher, in publish order.
  struct Origin {
    NodeId publisher = -1;
    uint64_t seq = 0;
  };

  void PropagateSubscription(NodeId subscriber, ProfileId id,
                             const ProfilePtr& profile);
  // Installs routing entries for one subscription along the tree path from
  // `publisher` to `subscriber`; every new entry is one control message.
  void InstallAlongPath(NodeId publisher, NodeId subscriber, ProfileId id,
                        const ProfilePtr& profile);
  // Cached handles of the stream-labeled counter families. Created lazily
  // on the first datagram of each stream, then plain pointer adds.
  struct StreamCounters {
    Counter* published = nullptr;
    Counter* published_bytes = nullptr;
    Counter* delivered = nullptr;
    Counter* delivered_recovery = nullptr;
    Counter* buffered = nullptr;
    Counter* flushed = nullptr;
    Counter* dropped = nullptr;
    Counter* forwarded = nullptr;
    Counter* forwarded_bytes = nullptr;
  };
  StreamCounters* StreamMetrics(const std::string& stream);
  struct LinkCounters {
    Counter* datagrams = nullptr;
    Counter* bytes = nullptr;
  };
  // Processes `d`, published as `origin`, at `node` arriving from `from`
  // (-1 = entering at its publisher); `sc` is the stream's counters, looked
  // up once per publish or flush. When `allowed` is non-null, *delivery* is
  // restricted to nodes with allowed[v] == true (a post-repair flush or a
  // rerouted hop); forwarding is unrestricted so the copy can route through
  // already-served nodes on the current tree.
  size_t Process(NodeId node, NodeId from, const Datagram& d,
                 const Origin& origin, StreamCounters* sc,
                 const std::vector<bool>* allowed = nullptr);
  // Resolves the total-count handles in metrics_ and forgets the per-stream
  // and per-link ones (re-created on first use).
  void BindLedger();
  // Records a CBN instant on `node`'s row of the Chrome trace: the stream,
  // the tuple's event time, and `peer` (-1: none) and `count` when set.
  void TraceInstant(const char* name, NodeId node, NodeId peer, size_t count,
                    const Datagram& d);
  // Membership of `start`'s side of the edge (blocked_from, start) of
  // `tree`, intersected with `allowed` when non-null — the nodes a datagram
  // stopped at that edge still owes delivery to.
  std::vector<bool> Unserved(const DisseminationTree& tree, NodeId start,
                             NodeId blocked_from,
                             const std::vector<bool>* allowed) const;
  // Finishes a hop from `prev` to `next` routed on `old_tree`, which
  // Repair()/RebuildTree() has replaced since: re-enters `d` at its
  // publisher, delivering only on `next`'s side of the old edge.
  void Reroute(const DisseminationTree& old_tree, NodeId next, NodeId prev,
               const Datagram& d, const Origin& origin, StreamCounters* sc,
               const std::vector<bool>* allowed);
  void AccountLink(NodeId u, NodeId v, const Datagram& d,
                   StreamCounters* sc);
  bool LinkFailed(NodeId u, NodeId v) const {
    return failed_links_.count(DisseminationTree::EdgeKey(u, v)) > 0;
  }
  // Clears all routing state and reinstalls every live subscription.
  void ReinstallAllSubscriptions();
  // Re-enters every buffered datagram at its publisher, in publish order,
  // delivering only into its recorded cut-off component, and counts it
  // recovered. Called after Repair()/RebuildTree() restored a connected
  // tree.
  void FlushBuffered();
  // Zeroes and forgets the counters of links no longer in tree_
  // (repair/rebuild replaced them), so WeightedBytes() never charges stale
  // keys at the fallback weight and a returning link restarts at zero.
  void PruneStaleLinkStats();

  // Shared with the hops in flight on it (see Reroute).
  std::shared_ptr<const DisseminationTree> tree_;
  NetworkOptions options_;
  Simulator* sim_;
  std::vector<Router> routers_;
  ProjectionCache projection_cache_;
  ProfileId next_profile_id_ = 1;
  uint64_t next_publish_seq_ = 0;

  std::map<ProfileId, Subscription> subscriptions_;
  std::map<std::string, std::set<NodeId>> advertisements_;
  std::set<std::pair<NodeId, NodeId>> failed_links_;
  struct Buffered {
    Origin origin;
    // Nodes on the far side of the failed link at buffer time — the ones
    // that have not seen the datagram. Flushing delivers only to them.
    std::vector<bool> allowed;
    // The copy projected for the failed link: it keeps every attribute the
    // far side's profiles on that link need.
    Datagram datagram;
  };
  std::vector<Buffered> buffered_;

  // The ledger lives in metrics_: the attached registry, else owned_metrics_.
  // Routers get only the attached one (attached_metrics_), so their sampled
  // match timing stays off when nothing is attached.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry* attached_metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::map<std::string, StreamCounters> stream_counters_;
  std::map<std::pair<NodeId, NodeId>, LinkCounters> link_counters_;
  Counter* forwards_counter_ = nullptr;
  Counter* forwarded_bytes_counter_ = nullptr;
  Counter* recovery_forwards_counter_ = nullptr;
  Counter* deliveries_counter_ = nullptr;
  Counter* matches_counter_ = nullptr;
  Counter* control_counter_ = nullptr;
  Histogram* datagram_bytes_hist_ = nullptr;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_NETWORK_H_
