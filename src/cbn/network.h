#ifndef COSMOS_CBN_NETWORK_H_
#define COSMOS_CBN_NETWORK_H_

#include <deque>
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
// Inside the network a datagram travels as a stream id plus a shared
// payload (the tuple and its wire size). A node visit reads the routing
// table's link list for the stream once, and a hop that keeps every
// attribute forwards the same payload without copying it.
//
// When a Simulator is attached, forwarding hops are scheduled with the link
// delay (edge weight, interpreted as milliseconds): the hop is kept in the
// network's in-flight list and the scheduled callback carries only its
// index, small enough for std::function to hold without allocating.
// Otherwise delivery is synchronous and immediate.
class ContentBasedNetwork {
 public:
  explicit ContentBasedNetwork(DisseminationTree tree,
                               NetworkOptions options = {},
                               Simulator* sim = nullptr);
  ContentBasedNetwork(const ContentBasedNetwork&) = delete;
  ContentBasedNetwork& operator=(const ContentBasedNetwork&) = delete;

  const DisseminationTree& tree() const { return tree_; }
  int num_nodes() const { return tree_.num_nodes(); }

  // Declares that `node` publishes `stream` (idempotent) and installs the
  // entries of existing subscriptions to `stream` along the paths from
  // `node` to their subscribers; it visits only those subscriptions.
  // Publish() advertises on first use, so an explicit call only installs
  // the routes before the first datagram.
  void Advertise(NodeId node, const std::string& stream);

  // Installs `profile` for a subscriber at `node`; `callback` fires on each
  // delivered tuple. Returns the profile id (for Unsubscribe).
  ProfileId Subscribe(NodeId node, Profile profile,
                      DeliveryCallback callback);

  // Removes the subscription's local delivery and every routing entry it
  // installed, visiting only the nodes that hold one. False when `id` is
  // unknown.
  bool Unsubscribe(ProfileId id);

  // Publishes a datagram from `node` (a source or a processor emitting a
  // result stream), advertising the stream from `node` first if needed.
  // Returns the number of local deliveries performed (synchronous mode) or
  // scheduled so far (simulated mode).
  size_t Publish(NodeId node, Datagram datagram);

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
  // Repair() and RebuildTree() take every hop in flight on the old tree
  // into the failure buffer and re-enter it with the buffered copies at
  // its publisher, in publish order, delivering only to the nodes it still
  // owed (counted as buffered, flushed and recovery traffic).
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
  // Buffered datagrams (held at a failed link or in flight at a tree
  // change) re-entered after Repair/RebuildTree: the sum of cbn.flushed.
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
    RoutingTable::PreparedPtr prepared;  // the profile, indexed once
    DeliveryCallback callback;
    // Every routing entry it installed, as (node, link): on each node of
    // its publisher paths, the link toward `node`. The tree path to `node`
    // is unique, so a node holds at most one.
    std::vector<std::pair<NodeId, NodeId>> entries;
  };

  // Where a datagram entered the network: its publisher and its place in
  // the network's publish order. Rides along every hop, so a copy buffered
  // at a failed link can re-enter at its publisher, in publish order.
  struct Origin {
    NodeId publisher = -1;
    uint64_t seq = 0;
  };

  // Nodes a recovering datagram still owes delivery to (see Process);
  // shared by every hop of one flushed copy.
  using Owed = std::shared_ptr<const std::vector<bool>>;

  // One datagram crossing one link under the simulator, from `from` to
  // `to`: kept in hops_ while in flight, its index in the scheduled event.
  struct Hop {
    NodeId to = -1;
    NodeId from = -1;
    StreamId stream = kNoStream;
    Origin origin;
    // Null: the slot is free, or a tree change took the datagram into the
    // failure buffer and the scheduled landing will only free the slot.
    PayloadRef payload;
    Owed allowed;
  };

  // A forwarding decision of one node visit, sent once all are made.
  struct Send {
    NodeId link = -1;
    uint32_t rank = 0;
    PayloadRef payload;
  };

  // Installs the subscription's entries along the paths from every
  // advertised publisher of its streams.
  void PropagateSubscription(ProfileId id, Subscription& sub);
  // Installs routing entries for one subscription along the tree path from
  // `publisher` to its subscriber, skipping the nodes listed in
  // `sub.entries`; every new entry is one control message.
  void InstallAlongPath(NodeId publisher, ProfileId id, Subscription& sub);
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
  // Per-stream state, indexed by StreamId.
  struct StreamState {
    std::set<NodeId> publishers;      // advertisements
    std::set<ProfileId> subscribers;  // live subscriptions requesting it
    StreamCounters counters;          // unbound (null) until first counted
  };
  StreamState& State(StreamId stream);
  // The stream's counters, bound on first use.
  StreamCounters& StreamMetrics(StreamId stream);
  void Advertise(NodeId node, StreamId stream);
  // Lands the in-flight hop `handle` at its receiving node.
  void LandHop(uint32_t handle);
  struct LinkCounters {
    Counter* datagrams = nullptr;
    Counter* bytes = nullptr;
  };
  // Processes `payload`, a tuple of `stream` published as `origin`, at
  // `node` arriving from `from` (-1 = entering at its publisher). When
  // `allowed` is non-null, *delivery* is restricted to nodes with
  // allowed[v] == true (a flushed copy); forwarding is unrestricted so the
  // copy can route through already-served nodes on the current tree.
  size_t Process(NodeId node, NodeId from, StreamId stream,
                 const PayloadRef& payload, const Origin& origin,
                 const Owed& allowed = nullptr);
  // Resolves the total-count handles in metrics_ and forgets the per-stream
  // and per-link ones (re-created on first use).
  void BindLedger();
  // Records a CBN instant on `node`'s row of the Chrome trace: the stream,
  // the tuple's event time, and `peer` (-1: none) and `count` when set.
  void TraceInstant(const char* name, NodeId node, NodeId peer, size_t count,
                    StreamId stream, const Tuple& tuple);
  // Membership of `start`'s side of the edge (blocked_from, start) of
  // `tree`, intersected with `allowed` when non-null — the nodes a datagram
  // stopped at that edge still owes delivery to.
  std::vector<bool> Unserved(const DisseminationTree& tree, NodeId start,
                             NodeId blocked_from,
                             const std::vector<bool>* allowed) const;
  // Holds `payload`, stopped on the edge from `from` to `to` of the current
  // tree, for FlushBuffered; it owes `to`'s side of that edge (within
  // `allowed` when non-null). Counted in cbn.buffered.
  void Buffer(NodeId from, NodeId to, StreamId stream, PayloadRef payload,
              const Origin& origin, const Owed& allowed);
  void AccountLink(NodeId u, NodeId v, size_t bytes, StreamCounters& sc);
  bool LinkFailed(NodeId u, NodeId v) const {
    return failed_links_.count(DisseminationTree::EdgeKey(u, v)) > 0;
  }
  // Makes `tree` the current tree, first moving every hop in flight into
  // buffered_, owing `hop.to`'s side of its edge on the old tree.
  void ReplaceTree(DisseminationTree tree);
  // Clears all routing state and reinstalls every live subscription.
  void ReinstallAllSubscriptions();
  // Re-enters every buffered datagram at its publisher, in publish order,
  // delivering only to the nodes it recorded as owed, and counts it
  // recovered: the one way a datagram recovers from a tree change. Called
  // after Repair()/RebuildTree() restored a connected tree.
  void FlushBuffered();
  // Zeroes and forgets the counters of links no longer in tree_
  // (repair/rebuild replaced them), so WeightedBytes() never charges stale
  // keys at the fallback weight and a returning link restarts at zero.
  void PruneStaleLinkStats();

  DisseminationTree tree_;
  NetworkOptions options_;
  Simulator* sim_;
  // Shared by the routers: stream names interned once.
  std::shared_ptr<StreamIds> streams_;
  std::vector<Router> routers_;
  ProfileId next_profile_id_ = 1;
  uint64_t next_publish_seq_ = 0;

  std::map<ProfileId, Subscription> subscriptions_;
  std::set<std::pair<NodeId, NodeId>> failed_links_;
  // Declared before every holder of a PayloadRef, so it outlives them.
  PayloadPool payloads_;
  struct Buffered {
    Origin origin;
    StreamId stream = kNoStream;
    // Nodes on the far side of the failed link, or of the in-flight hop's
    // edge, at buffer time — the ones that have not seen the datagram.
    // Flushing delivers only to them.
    Owed allowed;
    // The copy projected for that link: it keeps every attribute the far
    // side's profiles on that link need.
    PayloadRef payload;
  };
  std::vector<Buffered> buffered_;
  // Hops in flight under the simulator; free slots are listed in free_hops_.
  std::vector<Hop> hops_;
  std::vector<uint32_t> free_hops_;
  // Process's decisions, used as a stack: a visit appends its sends above
  // those of the visits it is nested in (a synchronous send re-enters
  // Process) and truncates back to where it began.
  std::vector<Send> sends_;

  // The ledger lives in metrics_: the attached registry, else owned_metrics_.
  // Routers get only the attached one (attached_metrics_), so their sampled
  // match timing stays off when nothing is attached.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry* attached_metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  // StreamId -> state; a deque, so references survive new streams.
  std::deque<StreamState> by_stream_;
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
