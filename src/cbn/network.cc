#include "cbn/network.h"

#include <algorithm>
#include <functional>
#include <limits>
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
      owned_metrics_(std::make_unique<MetricsRegistry>()),
      metrics_(owned_metrics_.get()) {
  routers_.reserve(tree_.num_nodes());
  for (NodeId i = 0; i < tree_.num_nodes(); ++i) routers_.emplace_back(i);
  BindLedger();
}

const std::set<NodeId>* ContentBasedNetwork::PublishersOf(
    const std::string& stream) const {
  auto it = advertisements_.find(stream);
  return it == advertisements_.end() ? nullptr : &it->second;
}

void ContentBasedNetwork::SetTelemetry(MetricsRegistry* metrics,
                                       Tracer* tracer) {
  // Every count but control messages starts with a publish; a count made
  // before the move would stay behind in the old registry.
  uint64_t counted = control_messages();
  for (const auto& [stream, sc] : stream_counters_) {
    counted += sc.published->value();
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
  stream_counters_.clear();
  link_counters_.clear();
  forwards_counter_ = metrics_->GetCounter("cbn.forwards");
  forwarded_bytes_counter_ = metrics_->GetCounter("cbn.forwarded_bytes");
  recovery_forwards_counter_ = metrics_->GetCounter("cbn.recovery_forwards");
  deliveries_counter_ = metrics_->GetCounter("cbn.deliveries");
  matches_counter_ = metrics_->GetCounter("cbn.matches");
  control_counter_ = metrics_->GetCounter("cbn.control_messages");
  datagram_bytes_hist_ = metrics_->GetHistogram("cbn.datagram_bytes");
}

ContentBasedNetwork::StreamCounters* ContentBasedNetwork::StreamMetrics(
    const std::string& stream) {
  auto it = stream_counters_.find(stream);
  if (it != stream_counters_.end()) return &it->second;
  StreamCounters sc;
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
  return &stream_counters_.emplace(stream, sc).first->second;
}

void ContentBasedNetwork::TraceInstant(const char* name, NodeId node,
                                       NodeId peer, size_t count,
                                       const Datagram& d) {
  std::vector<std::pair<std::string, std::string>> args = {
      {"stream", Tracer::ArgString(d.stream)},
      {"ts", std::to_string(d.tuple.timestamp())}};
  if (peer >= 0) args.emplace_back("peer", std::to_string(peer));
  if (count > 0) args.emplace_back("count", std::to_string(count));
  tracer_->Instant("cbn", name, node, std::move(args));
}

void ContentBasedNetwork::ForEachSubscription(
    const std::function<void(NodeId, const Profile&)>& fn) const {
  for (const auto& [id, sub] : subscriptions_) {
    fn(sub.node, *sub.profile);
  }
}

void ContentBasedNetwork::Advertise(NodeId node, const std::string& stream) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  auto& publishers = advertisements_[stream];
  if (!publishers.insert(node).second) return;  // already advertised
  if (!options_.advertisement_scoping) return;
  // A new publisher appeared: existing subscriptions interested in this
  // stream need routing entries along the new publisher->subscriber paths.
  for (const auto& [id, sub] : subscriptions_) {
    if (!sub.profile->WantsStream(stream)) continue;
    InstallAlongPath(node, sub.node, id, sub.profile);
  }
}

ProfileId ContentBasedNetwork::Subscribe(NodeId node, Profile profile,
                                         DeliveryCallback callback) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  ProfileId id = next_profile_id_++;
  auto shared = std::make_shared<const Profile>(std::move(profile));
  routers_[node].AddLocal(id, shared, callback);
  subscriptions_[id] = Subscription{node, shared, std::move(callback)};
  PropagateSubscription(node, id, shared);
  return id;
}

std::optional<std::set<NodeId>> ContentBasedNetwork::ScopeOf(
    NodeId subscriber, const Profile& profile) const {
  if (!options_.advertisement_scoping) return std::nullopt;
  std::set<NodeId> scope;
  for (const auto& stream : profile.streams()) {
    const std::set<NodeId>* publishers = PublishersOf(stream);
    if (publishers == nullptr) continue;
    for (NodeId p : *publishers) {
      for (NodeId n : tree_.Path(p, subscriber)) scope.insert(n);
    }
  }
  return scope;
}

void ContentBasedNetwork::InstallAlongPath(NodeId publisher,
                                           NodeId subscriber, ProfileId id,
                                           const ProfilePtr& profile) {
  auto path = tree_.Path(publisher, subscriber);
  // path runs publisher -> ... -> subscriber; at each intermediate node the
  // entry points to the next hop (toward the subscriber).
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    NodeId node = path[i];
    NodeId toward = path[i + 1];
    RoutingTable& table = routers_[node].table();
    if (!table.Contains(toward, id)) {
      table.Add(toward, id, profile);
      control_counter_->Increment();
    }
  }
}

void ContentBasedNetwork::PropagateSubscription(NodeId subscriber,
                                                ProfileId id,
                                                const ProfilePtr& profile) {
  auto scope = ScopeOf(subscriber, *profile);
  if (scope.has_value()) {
    // Advertisement-scoped installation: only publisher->subscriber paths.
    for (const auto& stream : profile->streams()) {
      const std::set<NodeId>* publishers = PublishersOf(stream);
      if (publishers == nullptr) continue;
      for (NodeId p : *publishers) {
        InstallAlongPath(p, subscriber, id, profile);
      }
    }
    return;
  }

  // Flood outward from the subscriber.
  std::queue<Hop> q;
  for (const auto& [n, w] : tree_.Neighbors(subscriber)) {
    q.push(Hop{n, subscriber});
    control_counter_->Increment();
  }
  Flood(id, profile, std::move(q));
}

void ContentBasedNetwork::Flood(ProfileId id, const ProfilePtr& profile,
                                std::queue<Hop> q) {
  // A node reached from neighbor `prev` (the side the subscriber lies on)
  // installs (prev -> profile) and keeps flooding unless covering prune
  // applies: if an older profile installed on that same link covers the new
  // one, nodes farther out already route everything it wants toward us, so
  // propagation stops. Only an older entry may prune: it was flooded first,
  // so two equal profiles never stop each other.
  while (!q.empty()) {
    Hop h = q.front();
    q.pop();
    RoutingTable& table = routers_[h.node].table();
    table.AddUnique(h.prev, id, profile);
    if (options_.covering_prune) {
      const auto& entries = table.EntriesFor(h.prev);
      auto coverer = std::find_if(
          entries.begin(), entries.end(), [&](const RoutingTable::Entry& e) {
            return e.id < id && ProfileCovers(*e.profile, *profile);
          });
      if (coverer != entries.end()) {
        prunes_.insert(PruneRecord{coverer->id, id, h.node, h.prev});
        coverers_of_.emplace(id, coverer->id);
        continue;  // no need to announce farther out
      }
    }
    for (const auto& [n, w] : tree_.Neighbors(h.node)) {
      if (n == h.prev) continue;
      q.push(Hop{n, h.node});
      control_counter_->Increment();
    }
  }
}

size_t ContentBasedNetwork::Unsubscribe(std::span<const ProfileId> ids) {
  std::vector<ProfileId> removed;
  for (ProfileId id : ids) {
    auto sit = subscriptions_.find(id);
    if (sit == subscriptions_.end()) continue;
    routers_[sit->second.node].RemoveLocal(id);
    for (auto& r : routers_) r.table().RemoveEverywhere(id);
    subscriptions_.erase(sit);
    removed.push_back(id);
    // Records of the removed subscription's own pruned floods go with it.
    auto it = coverers_of_.lower_bound({id, 0});
    while (it != coverers_of_.end() && it->first == id) {
      const ProfileId coverer = it->second;
      prunes_.erase(prunes_.lower_bound(PruneRecord{coverer, id, -1, -1}),
                    prunes_.lower_bound(PruneRecord{coverer, id + 1, -1, -1}));
      it = coverers_of_.erase(it);
    }
  }
  // Covering-prune soundness: a flood stopped under a removed profile
  // resumes at its prune sites, or the nodes beyond would stop routing
  // toward a live subscriber ("deaf subscriber"). Sites resume in ascending
  // id order, the order the floods first ran in, so a resumed flood can
  // again be pruned under an older survivor, resumed or not.
  std::map<ProfileId, std::queue<Hop>> resume;
  for (ProfileId id : removed) {
    auto it = prunes_.lower_bound(PruneRecord{id, 0, -1, -1});
    while (it != prunes_.end() && it->coverer == id) {
      resume[it->pruned].push(Hop{it->node, it->prev});
      coverers_of_.erase({it->pruned, id});
      it = prunes_.erase(it);
    }
  }
  for (auto& [id, sites] : resume) {
    Flood(id, subscriptions_.at(id).profile, std::move(sites));
  }
  COSMOS_DCHECK(PruneRecordsLive());
  return removed.size();
}

bool ContentBasedNetwork::PruneRecordsLive() const {
  std::set<std::pair<ProfileId, ProfileId>> pairs;
  for (const PruneRecord& r : prunes_) {
    if (subscriptions_.count(r.coverer) == 0 ||
        subscriptions_.count(r.pruned) == 0) {
      return false;
    }
    pairs.emplace(r.pruned, r.coverer);
  }
  return pairs == coverers_of_;
}

void ContentBasedNetwork::AccountLink(NodeId u, NodeId v, const Datagram& d,
                                      StreamCounters* sc) {
  size_t size = d.SerializedSize();
  forwards_counter_->Increment();
  forwarded_bytes_counter_->Add(size);
  datagram_bytes_hist_->Observe(size);
  sc->forwarded->Increment();
  sc->forwarded_bytes->Add(size);
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

std::vector<bool> ContentBasedNetwork::ComponentBeyondEdge(
    NodeId start, NodeId blocked_from) const {
  // Membership of `start`'s side of the single tree edge
  // (blocked_from, start): exactly the nodes the datagram stopped at that
  // edge never reached. Other failed links are crossed freely — nodes
  // beyond them have not seen the datagram either (the tree path is
  // unique), and distinct buffered copies of one datagram always record
  // disjoint sides.
  std::vector<bool> in(num_nodes(), false);
  std::queue<NodeId> q;
  q.push(start);
  in[start] = true;
  const auto blocked = DisseminationTree::EdgeKey(start, blocked_from);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    for (const auto& [v, w] : tree_.Neighbors(u)) {
      if (in[v] || DisseminationTree::EdgeKey(u, v) == blocked) continue;
      in[v] = true;
      q.push(v);
    }
  }
  return in;
}

size_t ContentBasedNetwork::Process(NodeId node, NodeId from,
                                    const Datagram& d, StreamCounters* sc,
                                    const std::vector<bool>* allowed) {
  // `allowed` marks the nodes that have NOT yet seen this datagram (a
  // post-repair flush into the side a failed link cut off). It restricts
  // *delivery*, never forwarding: after a repair (or a wholesale tree
  // rebuild) the surviving route to an unserved subscriber may pass through
  // already-served nodes, so a forwarding restriction would strand the
  // datagram. Served nodes merely relay; only unserved ones deliver.
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  size_t delivered = 0;
  if (allowed == nullptr || (*allowed)[node]) {
    delivered = routers_[node].DeliverLocal(d, projection_cache_);
    if (delivered > 0) {
      deliveries_counter_->Add(delivered);
      // Recovered datagrams are charged to recovery, never steady state.
      (allowed == nullptr ? sc->delivered : sc->delivered_recovery)
          ->Add(delivered);
      if (traced) TraceInstant("deliver", node, from, delivered, d);
    }
  }

  for (const auto& [neighbor, weight] : tree_.Neighbors(node)) {
    if (neighbor == from) continue;
    std::optional<Datagram> out = routers_[node].DecideForward(
        d, neighbor, options_.early_projection, projection_cache_);
    if (!out.has_value()) continue;
    matches_counter_->Increment();
    if (LinkFailed(node, neighbor)) {
      if (options_.buffer_on_failure) {
        // Hold a copy for the cut-off side; it resumes after Repair()
        // delivering exactly there, so nobody sees it twice.
        buffered_.push_back(Buffered{
            neighbor, ComponentBeyondEdge(neighbor, node), *out});
        sc->buffered->Increment();
        if (traced) TraceInstant("buffer", node, neighbor, 0, *out);
      } else {
        sc->dropped->Increment();
        if (traced) TraceInstant("drop", node, neighbor, 0, *out);
      }
      continue;
    }
    if (allowed == nullptr) {
      // Flush retransmissions travel over the recovery channel and are not
      // charged to the per-link byte counters.
      AccountLink(node, neighbor, *out, sc);
    } else {
      recovery_forwards_counter_->Increment();
    }
    if (traced) {
      // One slice on the receiving node's row, as long as the link delay.
      Duration dur = static_cast<Duration>(weight * kMillisecond);
      tracer_->Complete("cbn", "hop", neighbor, tracer_->Now(), dur,
                        {{"stream", Tracer::ArgString(out->stream)},
                         {"ts", std::to_string(out->tuple.timestamp())},
                         {"peer", std::to_string(node)}});
    }
    if (sim_ != nullptr) {
      // Link weight is the delay in milliseconds.
      Duration delay = static_cast<Duration>(weight * kMillisecond);
      NodeId next = neighbor;
      NodeId prev = node;
      // The component restriction must ride along with the scheduled hop
      // (by value: the caller's vector dies with the flush), or a
      // post-repair flush leaks into the healthy side and delivers twice.
      std::shared_ptr<const std::vector<bool>> allowed_copy;
      if (allowed != nullptr) {
        allowed_copy = std::make_shared<const std::vector<bool>>(*allowed);
      }
      sim_->Schedule(delay, [this, next, prev, sc, copy = std::move(*out),
                             allowed_copy]() {
        Process(next, prev, copy, sc, allowed_copy.get());
      });
    } else {
      delivered += Process(neighbor, node, *out, sc, allowed);
    }
  }
  return delivered;
}

size_t ContentBasedNetwork::Publish(NodeId node, const Datagram& datagram) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  if (options_.advertisement_scoping) {
    const std::set<NodeId>* publishers = PublishersOf(datagram.stream);
    COSMOS_CHECK(publishers != nullptr && publishers->count(node) > 0)
        << "node " << node << " advertises a stream it never registered";
  }
  StreamCounters* sc = StreamMetrics(datagram.stream);
  sc->published->Increment();
  sc->published_bytes->Add(datagram.SerializedSize());
  if (tracer_ != nullptr && tracer_->enabled()) {
    TraceInstant("publish", node, -1, 0, datagram);
  }
  return Process(node, /*from=*/-1, datagram, sc);
}

Status ContentBasedNetwork::FailLink(NodeId u, NodeId v) {
  if (!tree_.HasEdge(u, v)) {
    return Status::NotFound(StrFormat("tree link (%d,%d)", u, v));
  }
  failed_links_.insert(DisseminationTree::EdgeKey(u, v));
  return Status::OK();
}

void ContentBasedNetwork::ReinstallAllSubscriptions() {
  for (auto& r : routers_) {
    // A fresh Router drops its telemetry handles with the routing state;
    // re-apply them or rebuilds would silently stop counting.
    r = Router(r.id());
    r.SetTelemetry(attached_metrics_);
  }
  prunes_.clear();
  coverers_of_.clear();
  for (const auto& [id, sub] : subscriptions_) {
    routers_[sub.node].AddLocal(id, sub.profile, sub.callback);
    PropagateSubscription(sub.node, id, sub.profile);
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
  tree_ = std::move(repaired);
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
  tree_ = std::move(tree);
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
  // Flush buffered datagrams to the nodes they never reached; restricting
  // *delivery* to that membership guarantees no duplicates on the healthy
  // side, while forwarding stays unrestricted so the repaired tree can
  // route through it. (The retransmission itself travels over a recovery
  // channel and is not charged to the byte counters.)
  std::deque<Buffered> pending = std::move(buffered_);
  buffered_.clear();
  for (auto& b : pending) {
    StreamCounters* sc = StreamMetrics(b.datagram.stream);
    sc->flushed->Increment();
    if (tracer_ != nullptr && tracer_->enabled()) {
      TraceInstant("recover", b.entry, -1, 0, b.datagram);
    }
    Process(b.entry, /*from=*/-1, b.datagram, sc, &b.allowed);
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
  for (const auto& [stream, sc] : stream_counters_) {
    out[stream] = {sc.published->value(), sc.published_bytes->value()};
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
  for (const auto& [stream, sc] : stream_counters_) {
    total += sc.dropped->value();
  }
  return total;
}

uint64_t ContentBasedNetwork::recovered_datagrams() const {
  uint64_t total = 0;
  for (const auto& [stream, sc] : stream_counters_) {
    total += sc.flushed->value();
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
  for (auto& [stream, sc] : stream_counters_) {
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
