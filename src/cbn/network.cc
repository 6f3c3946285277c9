#include "cbn/network.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>

#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {

ContentBasedNetwork::ContentBasedNetwork(DisseminationTree tree,
                                         NetworkOptions options,
                                         Simulator* sim)
    : tree_(std::move(tree)),
      options_(options),
      sim_(sim),
      streams_(std::make_shared<StreamIds>()),
      owned_metrics_(std::make_unique<MetricsRegistry>()),
      metrics_(owned_metrics_.get()) {
  ReinstallAllSubscriptions();
  BindLedger();
}

const std::set<NodeId>* ContentBasedNetwork::PublishersOf(
    const std::string& stream) const {
  const StreamId sid = streams_->Find(stream);
  if (sid >= by_stream_.size() || by_stream_[sid].publishers.empty()) {
    return nullptr;
  }
  return &by_stream_[sid].publishers;
}

void ContentBasedNetwork::SetTelemetry(MetricsRegistry* metrics,
                                       Tracer* tracer) {
  // Every count but control messages starts with a publish; a count made
  // before the move would stay behind in the old registry.
  uint64_t counted = control_messages();
  for (const StreamState& st : by_stream_) {
    if (st.counters.published != nullptr) {
      counted += st.counters.published->value();
    }
  }
  COSMOS_CHECK_EQ(counted, 0u)
      << "SetTelemetry after the network counted traffic";
  attached_metrics_ = metrics;
  metrics_ = metrics != nullptr ? metrics : owned_metrics_.get();
  tracer_ = tracer;
  for (auto& r : routers_) r.SetTelemetry(attached_metrics_);
  BindLedger();
}

void ContentBasedNetwork::BindLedger() {
  for (StreamState& st : by_stream_) st.counters = StreamCounters{};
  link_counters_.clear();
  forwards_counter_ = metrics_->GetCounter("cbn.forwards");
  forwarded_bytes_counter_ = metrics_->GetCounter("cbn.forwarded_bytes");
  recovery_forwards_counter_ = metrics_->GetCounter("cbn.recovery_forwards");
  deliveries_counter_ = metrics_->GetCounter("cbn.deliveries");
  matches_counter_ = metrics_->GetCounter("cbn.matches");
  control_counter_ = metrics_->GetCounter("cbn.control_messages");
  datagram_bytes_hist_ = metrics_->GetHistogram("cbn.datagram_bytes");
}

ContentBasedNetwork::StreamState& ContentBasedNetwork::State(StreamId stream) {
  while (by_stream_.size() <= stream) by_stream_.emplace_back();
  return by_stream_[stream];
}

ContentBasedNetwork::StreamCounters& ContentBasedNetwork::StreamMetrics(
    StreamId id) {
  StreamCounters& sc = State(id).counters;
  if (sc.published != nullptr) return sc;
  const std::string& stream = streams_->Name(id);
  sc.published = metrics_->GetCounter("cbn.published", "stream", stream);
  sc.published_bytes =
      metrics_->GetCounter("cbn.published_bytes", "stream", stream);
  sc.delivered = metrics_->GetCounter("cbn.delivered", "stream", stream);
  sc.delivered_recovery =
      metrics_->GetCounter("cbn.delivered_recovery", "stream", stream);
  sc.buffered = metrics_->GetCounter("cbn.buffered", "stream", stream);
  sc.flushed = metrics_->GetCounter("cbn.flushed", "stream", stream);
  sc.dropped = metrics_->GetCounter("cbn.dropped", "stream", stream);
  sc.forwarded = metrics_->GetCounter("cbn.forwarded", "stream", stream);
  sc.forwarded_bytes =
      metrics_->GetCounter("cbn.forwarded_bytes", "stream", stream);
  return sc;
}

void ContentBasedNetwork::TraceInstant(const char* name, NodeId node,
                                       NodeId peer, size_t count,
                                       StreamId stream, const Tuple& tuple) {
  std::vector<std::pair<std::string, std::string>> args = {
      {"stream", Tracer::ArgString(streams_->Name(stream))},
      {"ts", std::to_string(tuple.timestamp())}};
  if (peer >= 0) args.emplace_back("peer", std::to_string(peer));
  if (count > 0) args.emplace_back("count", std::to_string(count));
  tracer_->Instant("cbn", name, node, std::move(args));
}

void ContentBasedNetwork::ForEachSubscription(
    const std::function<void(NodeId, const Profile&)>& fn) const {
  for (const auto& [id, sub] : subscriptions_) {
    fn(sub.node, *sub.prepared->profile);
  }
}

void ContentBasedNetwork::Advertise(NodeId node, const std::string& stream) {
  Advertise(node, streams_->Intern(stream));
}

void ContentBasedNetwork::Advertise(NodeId node, StreamId stream) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  StreamState& st = State(stream);
  if (!st.publishers.insert(node).second) return;  // known
  // A new publisher appeared: existing subscriptions interested in this
  // stream need routing entries along the new publisher->subscriber paths.
  for (ProfileId id : st.subscribers) {
    InstallAlongPath(node, id, subscriptions_.at(id));
  }
}

ProfileId ContentBasedNetwork::Subscribe(NodeId node, Profile profile,
                                         DeliveryCallback callback) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  ProfileId id = next_profile_id_++;
  auto prepared = RoutingTable::Prepare(
      std::make_shared<const Profile>(std::move(profile)), *streams_);
  routers_[node].AddLocal(id, prepared->profile, callback);
  for (StreamId stream : prepared->streams) {
    State(stream).subscribers.insert(id);
  }
  Subscription& sub = subscriptions_[id] =
      Subscription{node, std::move(prepared), std::move(callback), {}};
  PropagateSubscription(id, sub);
  return id;
}

void ContentBasedNetwork::InstallAlongPath(NodeId publisher, ProfileId id,
                                           Subscription& sub) {
  auto path = tree_.Path(publisher, sub.node);
  // path runs publisher -> ... -> subscriber; at each intermediate node the
  // entry points to the next hop (toward the subscriber).
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const std::pair<NodeId, NodeId> entry(path[i], path[i + 1]);
    if (std::find(sub.entries.begin(), sub.entries.end(), entry) !=
        sub.entries.end()) {
      continue;
    }
    routers_[entry.first].table().Add(entry.second, id, sub.prepared);
    sub.entries.push_back(entry);
    control_counter_->Increment();
  }
}

void ContentBasedNetwork::PropagateSubscription(ProfileId id,
                                                Subscription& sub) {
  for (StreamId stream : sub.prepared->streams) {
    for (NodeId p : State(stream).publishers) InstallAlongPath(p, id, sub);
  }
}

bool ContentBasedNetwork::Unsubscribe(ProfileId id) {
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return false;
  const Subscription& sub = it->second;
  routers_[sub.node].RemoveLocal(id);
  for (const auto& [node, link] : sub.entries) {
    const bool removed = routers_[node].table().Remove(link, id);
    COSMOS_DCHECK(removed) << "subscription " << id << " lost its entry on "
                           << node << " toward " << link;
  }
  for (StreamId stream : sub.prepared->streams) {
    State(stream).subscribers.erase(id);
  }
  subscriptions_.erase(it);
  return true;
}

void ContentBasedNetwork::AccountLink(NodeId u, NodeId v, size_t size,
                                      StreamCounters& sc) {
  forwards_counter_->Increment();
  forwarded_bytes_counter_->Add(size);
  datagram_bytes_hist_->Observe(size);
  sc.forwarded->Increment();
  sc.forwarded_bytes->Add(size);
  auto key = DisseminationTree::EdgeKey(u, v);
  auto it = link_counters_.find(key);
  if (it == link_counters_.end()) {
    std::string label = StrFormat("%d-%d", static_cast<int>(key.first),
                                  static_cast<int>(key.second));
    LinkCounters lc;
    lc.datagrams = metrics_->GetCounter("cbn.link_datagrams", "link", label);
    lc.bytes = metrics_->GetCounter("cbn.link_bytes", "link", label);
    it = link_counters_.emplace(key, lc).first;
  }
  it->second.datagrams->Increment();
  it->second.bytes->Add(size);
}

std::vector<bool> ContentBasedNetwork::Unserved(
    const DisseminationTree& tree, NodeId start, NodeId blocked_from,
    const std::vector<bool>* allowed) const {
  // Membership of `start`'s side of the single tree edge
  // (blocked_from, start): exactly the nodes the datagram stopped at that
  // edge never reached. Other failed links are crossed freely — nodes
  // beyond them have not seen the datagram either (the tree path is
  // unique), and distinct copies of one datagram stopped at different
  // edges always record disjoint sides.
  std::vector<bool> in(num_nodes(), false);
  std::queue<NodeId> q;
  q.push(start);
  in[start] = true;
  const auto blocked = DisseminationTree::EdgeKey(start, blocked_from);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    for (const auto& [v, w] : tree.Neighbors(u)) {
      if (in[v] || DisseminationTree::EdgeKey(u, v) == blocked) continue;
      in[v] = true;
      q.push(v);
    }
  }
  if (allowed != nullptr) {
    for (NodeId v = 0; v < num_nodes(); ++v) in[v] = in[v] && (*allowed)[v];
  }
  return in;
}

void ContentBasedNetwork::Buffer(NodeId from, NodeId to, StreamId stream,
                                 PayloadRef payload, const Origin& origin,
                                 const Owed& allowed) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    TraceInstant("buffer", from, to, 0, stream, payload->tuple());
  }
  StreamMetrics(stream).buffered->Increment();
  buffered_.push_back(Buffered{
      origin, stream,
      std::make_shared<const std::vector<bool>>(
          Unserved(tree_, to, from, allowed.get())),
      std::move(payload)});
}

void ContentBasedNetwork::LandHop(uint32_t handle) {
  Hop hop = std::move(hops_[handle]);  // leaves the slot's payload null
  free_hops_.push_back(handle);
  // A null payload was taken into the failure buffer by a tree change.
  if (!hop.payload) return;
  Process(hop.to, hop.from, hop.stream, hop.payload, hop.origin, hop.allowed);
}

size_t ContentBasedNetwork::Process(NodeId node, NodeId from,
                                    StreamId stream,
                                    const PayloadRef& payload,
                                    const Origin& origin, const Owed& allowed) {
  // `allowed` marks the nodes that have NOT yet seen this datagram (a
  // flushed copy, stopped at a failed link or in flight at a tree change).
  // It restricts *delivery*, never forwarding: after a repair (or a
  // wholesale tree rebuild) the surviving route to an unserved subscriber
  // may pass through already-served nodes, so a forwarding restriction
  // would strand the datagram. Served nodes merely relay; only unserved
  // ones deliver.
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  StreamCounters& sc = StreamMetrics(stream);
  Router& router = routers_[node];
  size_t delivered = 0;
  if (allowed == nullptr || (*allowed)[node]) {
    delivered = router.DeliverLocal(stream, *payload);
    if (delivered > 0) {
      deliveries_counter_->Add(delivered);
      // Recovered datagrams are charged to recovery, never steady state.
      (allowed == nullptr ? sc.delivered : sc.delivered_recovery)
          ->Add(delivered);
      if (traced) {
        TraceInstant("deliver", node, from, delivered, stream,
                     payload->tuple());
      }
    }
  }

  // Decide every link before sending on any: a synchronous send runs the
  // next node, whose subscribers' callbacks may change this table. This
  // visit's sends are sends_[begin, end); a nested visit pushes above them
  // and may grow the buffer, so each send is moved out before it is used.
  const size_t begin = sends_.size();
  for (const RoutingTable::LinkBucket& lb : router.table().LinksFor(stream)) {
    if (lb.link == from) continue;
    PayloadRef out = router.Forward(*lb.bucket, payload,
                                    options_.early_projection, payloads_);
    if (out) sends_.push_back(Send{lb.link, lb.rank, std::move(out)});
  }
  const size_t end = sends_.size();

  for (size_t i = begin; i < end; ++i) {
    Send send = std::move(sends_[i]);
    const NodeId neighbor = send.link;
    matches_counter_->Increment();
    if (LinkFailed(node, neighbor)) {
      if (options_.buffer_on_failure) {
        // Hold a copy for the cut-off side; it re-enters at its publisher
        // after Repair() and delivers exactly there, so nobody sees it
        // twice. A flushed copy stopped again keeps only the nodes its flush
        // still owed.
        Buffer(node, neighbor, stream, std::move(send.payload), origin,
               allowed);
      } else {
        sc.dropped->Increment();
        if (traced) {
          TraceInstant("drop", node, neighbor, 0, stream,
                       send.payload->tuple());
        }
      }
      continue;
    }
    if (allowed == nullptr) {
      // Flush retransmissions travel over the recovery channel and are not
      // charged to the per-link byte counters.
      AccountLink(node, neighbor, send.payload->wire_size(), sc);
    } else {
      recovery_forwards_counter_->Increment();
    }
    const auto& neighbors = tree_.Neighbors(node);
    COSMOS_DCHECK(send.rank < neighbors.size() &&
                  neighbors[send.rank].first == neighbor)
        << "routing entry on node " << node << " for non-neighbor "
        << neighbor;
    // Link weight is the delay in milliseconds.
    const Duration delay =
        static_cast<Duration>(neighbors[send.rank].second * kMillisecond);
    if (traced) {
      // One slice on the receiving node's row, as long as the link delay.
      tracer_->Complete(
          "cbn", "hop", neighbor, tracer_->Now(), delay,
          {{"stream", Tracer::ArgString(streams_->Name(stream))},
           {"ts", std::to_string(send.payload->tuple().timestamp())},
           {"peer", std::to_string(node)}});
    }
    if (sim_ != nullptr) {
      uint32_t handle;
      if (free_hops_.empty()) {
        handle = static_cast<uint32_t>(hops_.size());
        hops_.emplace_back();
      } else {
        handle = free_hops_.back();
        free_hops_.pop_back();
      }
      // The component restriction rides along with the hop, or a
      // post-repair flush leaks into the healthy side and delivers twice.
      hops_[handle] = Hop{.to = neighbor,
                          .from = node,
                          .stream = stream,
                          .origin = origin,
                          .payload = std::move(send.payload),
                          .allowed = allowed};
      sim_->Schedule(delay, [this, handle] { LandHop(handle); });
    } else {
      delivered +=
          Process(neighbor, node, stream, send.payload, origin, allowed);
    }
  }
  sends_.resize(begin);
  return delivered;
}

size_t ContentBasedNetwork::Publish(NodeId node, Datagram datagram) {
  const StreamId stream = streams_->Intern(datagram.stream);
  Advertise(node, stream);
  StreamCounters& sc = StreamMetrics(stream);
  PayloadRef payload = payloads_.Make(std::move(datagram));
  sc.published->Increment();
  sc.published_bytes->Add(payload->wire_size());
  if (tracer_ != nullptr && tracer_->enabled()) {
    TraceInstant("publish", node, -1, 0, stream, payload->tuple());
  }
  return Process(node, /*from=*/-1, stream, payload,
                 Origin{node, next_publish_seq_++});
}

Status ContentBasedNetwork::FailLink(NodeId u, NodeId v) {
  if (!tree_.HasEdge(u, v)) {
    return Status::NotFound(StrFormat("tree link (%d,%d)", u, v));
  }
  failed_links_.insert(DisseminationTree::EdgeKey(u, v));
  return Status::OK();
}

void ContentBasedNetwork::ReplaceTree(DisseminationTree tree) {
  // A hop in flight may be bound for a node on no path of the new tree, so
  // it re-enters from the buffer with the copies held at failed links. Its
  // slot stays taken until the scheduled landing, now inert, frees it.
  for (Hop& hop : hops_) {
    if (!hop.payload) continue;
    // Moving leaves the slot's payload null.
    Buffer(hop.from, hop.to, hop.stream, std::move(hop.payload), hop.origin,
           hop.allowed);
  }
  tree_ = std::move(tree);
}

void ContentBasedNetwork::ReinstallAllSubscriptions() {
  routers_.resize(tree_.num_nodes());
  for (NodeId i = 0; i < tree_.num_nodes(); ++i) {
    // Each router lists its links in the tree's neighbor order, so a node
    // visit forwards in that order.
    std::vector<NodeId> links;
    for (const auto& [v, w] : tree_.Neighbors(i)) links.push_back(v);
    routers_[i] = Router(i, streams_, std::move(links));
    // A fresh Router has no telemetry handles; re-apply them or rebuilds
    // would silently stop counting.
    routers_[i].SetTelemetry(attached_metrics_);
  }
  for (auto& [id, sub] : subscriptions_) {
    routers_[sub.node].AddLocal(id, sub.prepared->profile, sub.callback);
    sub.entries.clear();
    PropagateSubscription(id, sub);
  }
}

Status ContentBasedNetwork::Repair(const Graph& overlay) {
  if (failed_links_.empty()) return Status::OK();
  if (overlay.num_nodes() != num_nodes()) {
    return Status::InvalidArgument("overlay node count mismatch");
  }
  // Surviving tree edges.
  std::vector<Edge> edges;
  for (const auto& e : tree_.edges()) {
    if (!LinkFailed(e.u, e.v)) edges.push_back(e);
  }
  // Reconnect components greedily: union-find over surviving edges, then
  // for each failed link pick the cheapest overlay edge across the cut.
  std::vector<int> parent(num_nodes());
  for (int i = 0; i < num_nodes(); ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };
  for (const auto& e : edges) unite(e.u, e.v);

  size_t needed = failed_links_.size();
  for (size_t round = 0; round < needed; ++round) {
    // Find the cheapest healthy overlay edge across any remaining cut.
    const Edge* best = nullptr;
    for (const auto& cand : overlay.edges()) {
      if (find(cand.u) == find(cand.v)) continue;
      if (LinkFailed(cand.u, cand.v)) continue;
      if (best == nullptr || cand.weight < best->weight) best = &cand;
    }
    if (best == nullptr) {
      return Status::FailedPrecondition(
          "overlay cannot reconnect the partitioned tree");
    }
    edges.push_back(*best);
    unite(best->u, best->v);
  }

  COSMOS_ASSIGN_OR_RETURN(DisseminationTree repaired,
                          DisseminationTree::FromEdges(num_nodes(), edges));
  ReplaceTree(std::move(repaired));
  failed_links_.clear();
  PruneStaleLinkStats();
  ReinstallAllSubscriptions();
  FlushBuffered();
  return Status::OK();
}

Status ContentBasedNetwork::RebuildTree(DisseminationTree tree) {
  if (tree.num_nodes() != num_nodes()) {
    return Status::InvalidArgument("tree node count mismatch");
  }
  ReplaceTree(std::move(tree));
  failed_links_.clear();
  PruneStaleLinkStats();
  ReinstallAllSubscriptions();
  // Datagrams buffered at failed links would otherwise be stranded: never
  // delivered, never counted lost. They recover here exactly like after
  // Repair().
  FlushBuffered();
  return Status::OK();
}

void ContentBasedNetwork::FlushBuffered() {
  // Each buffered copy (stopped at a failed link, or in flight when the tree
  // changed) re-enters at its publisher, in publish order, so it travels the
  // new tree's FIFO paths ahead of every later datagram of its stream:
  // per-stream order survives the failure or the rebuild. Restricting
  // *delivery* to the recorded cut-off side guarantees no duplicates, while
  // forwarding stays unrestricted so the repaired tree can route through
  // served nodes. (The retransmission travels over a recovery channel and
  // is not charged to the byte counters.)
  std::vector<Buffered> pending = std::move(buffered_);
  buffered_.clear();
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Buffered& a, const Buffered& b) {
                     return a.origin.seq < b.origin.seq;
                   });
  for (const Buffered& b : pending) {
    StreamMetrics(b.stream).flushed->Increment();
    if (tracer_ != nullptr && tracer_->enabled()) {
      TraceInstant("recover", b.origin.publisher, -1, 0, b.stream,
                   b.payload->tuple());
    }
    Process(b.origin.publisher, /*from=*/-1, b.stream, b.payload, b.origin,
            b.allowed);
  }
}

void ContentBasedNetwork::PruneStaleLinkStats() {
  // Keys for edges the repair/rebuild dropped would otherwise be charged
  // forever by WeightedBytes() at the value_or(1.0) fallback weight.
  for (auto it = link_counters_.begin(); it != link_counters_.end();) {
    if (!tree_.HasEdge(it->first.first, it->first.second)) {
      it->second.datagrams->Reset();
      it->second.bytes->Reset();
      it = link_counters_.erase(it);
    } else {
      ++it;
    }
  }
}

std::map<std::pair<NodeId, NodeId>, LinkStats>
ContentBasedNetwork::link_stats() const {
  std::map<std::pair<NodeId, NodeId>, LinkStats> out;
  for (const auto& [key, lc] : link_counters_) {
    out[key] = LinkStats{lc.datagrams->value(), lc.bytes->value()};
  }
  return out;
}

TrafficByStream ContentBasedNetwork::published_by_stream() const {
  TrafficByStream out;
  for (StreamId id = 0; id < by_stream_.size(); ++id) {
    const StreamCounters& sc = by_stream_[id].counters;
    if (sc.published == nullptr) continue;
    out[streams_->Name(id)] = {sc.published->value(),
                               sc.published_bytes->value()};
  }
  return out;
}

TrafficByStream TrafficSince(const TrafficByStream& later,
                             const TrafficByStream& earlier) {
  TrafficByStream out;
  for (const auto& [stream, now] : later) {
    auto it = earlier.find(stream);
    StreamTraffic before = it == earlier.end() ? StreamTraffic{} : it->second;
    if (now.tuples <= before.tuples) continue;
    // min(): a ResetStats() in between restarts both counters from zero.
    out[stream] = {now.tuples - before.tuples,
                   now.bytes - std::min(now.bytes, before.bytes)};
  }
  return out;
}

uint64_t ContentBasedNetwork::lost_datagrams() const {
  uint64_t total = 0;
  for (const StreamState& st : by_stream_) {
    if (st.counters.dropped != nullptr) total += st.counters.dropped->value();
  }
  return total;
}

uint64_t ContentBasedNetwork::recovered_datagrams() const {
  uint64_t total = 0;
  for (const StreamState& st : by_stream_) {
    if (st.counters.flushed != nullptr) total += st.counters.flushed->value();
  }
  return total;
}

double ContentBasedNetwork::WeightedBytes() const {
  double total = 0.0;
  for (const auto& [key, lc] : link_counters_) {
    double w = tree_.EdgeWeight(key.first, key.second).value_or(1.0);
    total += static_cast<double>(lc.bytes->value()) * w;
  }
  return total;
}

size_t ContentBasedNetwork::TotalTableEntries() const {
  size_t total = 0;
  for (const auto& r : routers_) total += r.table().TotalEntries();
  return total;
}

void ContentBasedNetwork::ResetStats() {
  for (Counter* c : {forwards_counter_, forwarded_bytes_counter_,
                     recovery_forwards_counter_, deliveries_counter_,
                     matches_counter_, control_counter_}) {
    c->Reset();
  }
  datagram_bytes_hist_->Reset();
  for (StreamState& st : by_stream_) {
    const StreamCounters& sc = st.counters;
    if (sc.published == nullptr) continue;
    for (Counter* c : {sc.published, sc.published_bytes, sc.delivered,
                       sc.delivered_recovery, sc.buffered, sc.flushed,
                       sc.dropped, sc.forwarded, sc.forwarded_bytes}) {
      c->Reset();
    }
  }
  for (auto& [key, lc] : link_counters_) {
    lc.datagrams->Reset();
    lc.bytes->Reset();
  }
  link_counters_.clear();
}

}  // namespace cosmos
