#include "cbn/router.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/logging.h"

namespace cosmos {

Router::Router(NodeId id, std::shared_ptr<StreamIds> streams,
               std::vector<NodeId> links)
    : id_(id), table_(std::move(streams), std::move(links)) {}

void Router::IndexLocal(size_t index) {
  for (const auto& stream : local_profiles_[index].second->streams()) {
    LocalStream& ls = local_by_stream_[streams()->Intern(stream)];
    ls.subscribers.push_back(LocalSubscriber{index, {}});
    ls.matcher.reset();
  }
}

void Router::AddLocal(ProfileId id, ProfilePtr profile,
                      DeliveryCallback callback) {
  local_profiles_.emplace_back(id, std::move(profile));
  local_callbacks_.push_back(std::move(callback));
  IndexLocal(local_profiles_.size() - 1);
}

void Router::SetTelemetry(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    matcher_compiles_ = nullptr;
    matcher_fallbacks_ = nullptr;
    match_time_ns_ = nullptr;
    return;
  }
  matcher_compiles_ = metrics->GetCounter("cbn.matcher_compiles");
  matcher_fallbacks_ = metrics->GetCounter("cbn.matcher_fallbacks");
  match_time_ns_ = metrics->GetHistogram("cbn.match_ns");
}

const CompiledMatcher& Router::LocalMatcher(LocalStream& ls,
                                            const std::string& stream) {
  if (ls.matcher != nullptr) return *ls.matcher;
  std::vector<const Profile*> profiles;
  profiles.reserve(ls.subscribers.size());
  for (const LocalSubscriber& sub : ls.subscribers) {
    profiles.push_back(local_profiles_[sub.index].second.get());
  }
  if (matcher_compiles_ != nullptr) matcher_compiles_->Increment();
  ls.matcher = std::make_unique<CompiledMatcher>(stream, profiles);
  return *ls.matcher;
}

const ProjectionPlan& Router::LastHopPlan(
    LocalSubscriber& sub, const std::string& stream,
    const std::shared_ptr<const Schema>& input) {
  return sub.plans.Get(input, [&] {
    const Profile& p = *local_profiles_[sub.index].second;
    return ProjectionPlan::Named(*input, p.ProjectionOf(stream));
  });
}

void Router::MatchCompiled(const CompiledMatcher& m, const Tuple& tuple,
                           std::vector<uint32_t>* hits) const {
  const bool timed =
      match_time_ns_ != nullptr && (match_sample_++ & 63) == 0;
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  m.Match(tuple, &matcher_scratch_, hits);
  if (timed) {
    match_time_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  if (matcher_fallbacks_ != nullptr && matcher_scratch_.fallback_evals > 0) {
    matcher_fallbacks_->Add(matcher_scratch_.fallback_evals);
  }
}

bool Router::RemoveLocal(ProfileId id) {
  auto pit = std::find_if(local_profiles_.begin(), local_profiles_.end(),
                          [id](const auto& p) { return p.first == id; });
  if (pit == local_profiles_.end()) return false;
  const size_t index = static_cast<size_t>(pit - local_profiles_.begin());
  for (const auto& stream : pit->second->streams()) {
    auto it = local_by_stream_.find(streams()->Find(stream));
    COSMOS_DCHECK(it != local_by_stream_.end()) << "unindexed " << stream;
    std::erase_if(it->second.subscribers, [index](const LocalSubscriber& s) {
      return s.index == index;
    });
    it->second.matcher.reset();
    if (it->second.subscribers.empty()) local_by_stream_.erase(it);
  }
  // Later subscribers shift down one; every other stream keeps its
  // matcher and plans.
  for (auto& [sid, ls] : local_by_stream_) {
    for (LocalSubscriber& sub : ls.subscribers) {
      if (sub.index > index) --sub.index;
    }
  }
  local_profiles_.erase(pit);
  local_callbacks_.erase(local_callbacks_.begin() +
                         static_cast<long>(index));
  return true;
}

size_t Router::DeliverLocal(StreamId stream, const Payload& payload) {
  auto it = local_by_stream_.find(stream);
  if (it == local_by_stream_.end()) return 0;
  const Tuple& tuple = payload.tuple();
  const std::string& name = streams()->Name(stream);
  // Element references survive the map's rehash when a callback subscribes.
  LocalStream& ls = it->second;
  const CompiledMatcher& m = LocalMatcher(ls, name);
  // Take the reusable hit buffer for the duration of the callbacks: a
  // callback that publishes re-enters this router and must not clobber
  // the list being delivered (it finds the member empty and regrows).
  std::vector<uint32_t> hits;
  std::swap(hits, local_hit_scratch_);
  MatchCompiled(m, tuple, &hits);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    const Datagram d{name, tuple};
    const auto& subs = ls.subscribers;
    size_t k = 0;
    for (size_t j = 0; j < subs.size(); ++j) {
      const auto& [id, profile] = local_profiles_[subs[j].index];
      const bool interpreted = profile->Covers(d);
      const bool compiled = k < hits.size() && hits[k] == j;
      COSMOS_DCHECK_EQ(compiled, interpreted)
          << "compiled/interpreted divergence for local subscriber " << id
          << " on " << name;
      if (compiled) ++k;
    }
  }
#endif
  for (uint32_t h : hits) {
    LocalSubscriber& sub = ls.subscribers[h];
    const size_t i = sub.index;
    if (!local_callbacks_[i]) continue;
    // Last-hop projection: the subscriber receives exactly P(stream).
    const ProjectionPlan& plan = LastHopPlan(sub, name, tuple.schema());
    if (plan.identity()) {
      local_callbacks_[i](name, tuple);
    } else {
      local_callbacks_[i](name, tuple.Project(plan.indices, plan.schema));
    }
  }
  const size_t delivered = hits.size();
  hits.clear();
  std::swap(hits, local_hit_scratch_);
  return delivered;
}

PayloadRef Router::Forward(const RoutingTable::StreamBucket& bucket,
                           const PayloadRef& payload, bool early_projection,
                           PayloadPool& pool) const {
  const bool was_compiled = bucket.has_compiled();
  const CompiledMatcher& m = bucket.Compiled();
  if (!was_compiled && matcher_compiles_ != nullptr) {
    matcher_compiles_->Increment();
  }
  const Tuple& tuple = payload->tuple();
  MatchCompiled(m, tuple, &hit_scratch_);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    const Datagram d{bucket.stream(), tuple};
    const std::vector<RoutingTable::BucketSlot>& slots = bucket.slots();
    size_t k = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      const bool interpreted = slots[i].profile->Covers(d);
      const bool compiled = k < hit_scratch_.size() && hit_scratch_[k] == i;
      COSMOS_DCHECK_EQ(compiled, interpreted)
          << "compiled/interpreted divergence at slot " << i << " (entry "
          << slots[i].id << ") on stream " << bucket.stream();
      if (compiled) ++k;
    }
  }
#endif
  if (hit_scratch_.empty()) return PayloadRef();
  if (!early_projection) return payload;
  // The attributes any matching downstream profile still needs (its
  // projection set plus its filters' attributes, so re-evaluation at later
  // hops stays possible); a profile wanting all attributes keeps them all.
  const ProjectionPlan& plan = bucket.PlanFor(tuple.schema(), hit_scratch_);
  if (plan.identity()) return payload;
  return pool.Project(*payload, plan);
}

}  // namespace cosmos
