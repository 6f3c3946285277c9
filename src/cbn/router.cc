#include "cbn/router.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {

const ProjectionCache::Plan& ProjectionCache::PlanFor(
    const std::shared_ptr<const Schema>& schema_ptr,
    const std::vector<std::string>& attrs) {
  const Schema& schema = *schema_ptr;
  Key key{schema_ptr, StrJoin(attrs, ",")};
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;

  Plan plan;
  if (attrs.empty()) {
    plan.identity = true;
  } else {
    std::vector<AttributeDef> defs;
    // Preserve the source schema's attribute order.
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const auto& def = schema.attribute(i);
      if (std::find(attrs.begin(), attrs.end(), def.name) != attrs.end()) {
        plan.indices.push_back(i);
        defs.push_back(def);
      }
    }
    if (plan.indices.size() == schema.num_attributes()) {
      plan.identity = true;
    } else {
      plan.schema = std::make_shared<Schema>(schema.stream_name(),
                                             std::move(defs));
    }
  }
  return plans_.emplace(std::move(key), std::move(plan)).first->second;
}

Datagram ProjectionCache::Project(const Datagram& d,
                                  const std::vector<std::string>& attrs) {
  const Plan& plan = PlanFor(d.tuple.schema(), attrs);
  if (plan.identity) return d;
  return Datagram{d.stream, d.tuple.Project(plan.indices, plan.schema)};
}

void Router::AddLocal(ProfileId id, ProfilePtr profile,
                      DeliveryCallback callback) {
  size_t index = local_profiles_.size();
  for (const auto& stream : profile->streams()) {
    local_by_stream_[stream].push_back(index);
  }
  local_profiles_.emplace_back(id, std::move(profile));
  local_callbacks_.push_back(std::move(callback));
  local_matchers_.clear();
}

void Router::ReindexLocals() {
  local_by_stream_.clear();
  for (size_t i = 0; i < local_profiles_.size(); ++i) {
    for (const auto& stream : local_profiles_[i].second->streams()) {
      local_by_stream_[stream].push_back(i);
    }
  }
  local_matchers_.clear();
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

const CompiledMatcher& Router::LocalMatcher(
    const std::string& stream, const std::vector<size_t>& indices) {
  auto it = local_matchers_.find(stream);
  if (it != local_matchers_.end()) return *it->second;
  std::vector<const Profile*> profiles;
  profiles.reserve(indices.size());
  for (size_t i : indices) profiles.push_back(local_profiles_[i].second.get());
  if (matcher_compiles_ != nullptr) matcher_compiles_->Increment();
  return *local_matchers_
              .emplace(stream,
                       std::make_unique<CompiledMatcher>(stream, profiles))
              .first->second;
}

void Router::MatchCompiled(const CompiledMatcher& m, const Datagram& d,
                           std::vector<uint32_t>* hits) const {
  const bool timed =
      match_time_ns_ != nullptr && (match_sample_++ & 63) == 0;
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  m.Match(d, &matcher_scratch_, hits);
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
  for (size_t i = 0; i < local_profiles_.size(); ++i) {
    if (local_profiles_[i].first == id) {
      local_profiles_.erase(local_profiles_.begin() + static_cast<long>(i));
      local_callbacks_.erase(local_callbacks_.begin() +
                             static_cast<long>(i));
      ReindexLocals();
      return true;
    }
  }
  return false;
}

size_t Router::DeliverLocal(const Datagram& d, ProjectionCache& cache) {
  auto it = local_by_stream_.find(d.stream);
  if (it == local_by_stream_.end()) return 0;
  const CompiledMatcher& m = LocalMatcher(d.stream, it->second);
  // Take the reusable hit buffer for the duration of the callbacks: a
  // callback that publishes re-enters this router and must not clobber
  // the list being delivered (it finds the member empty and regrows).
  std::vector<uint32_t> hits;
  std::swap(hits, local_hit_scratch_);
  MatchCompiled(m, d, &hits);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    size_t k = 0;
    for (size_t j = 0; j < it->second.size(); ++j) {
      const bool interpreted = local_profiles_[it->second[j]].second->Covers(d);
      const bool compiled = k < hits.size() && hits[k] == j;
      COSMOS_DCHECK_EQ(compiled, interpreted)
          << "compiled/interpreted divergence for local subscriber "
          << local_profiles_[it->second[j]].first << " on " << d.stream;
      if (compiled) ++k;
    }
  }
#endif
  for (uint32_t h : hits) {
    const size_t i = it->second[h];
    const Profile& p = *local_profiles_[i].second;
    // Last-hop projection: the subscriber receives exactly P(stream).
    Datagram out = cache.Project(d, p.ProjectionOf(d.stream));
    if (local_callbacks_[i]) {
      local_callbacks_[i](out.stream, out.tuple);
    }
  }
  const size_t delivered = hits.size();
  hits.clear();
  std::swap(hits, local_hit_scratch_);
  return delivered;
}

std::optional<Datagram> Router::DecideForward(const Datagram& d, NodeId link,
                                              bool early_projection,
                                              ProjectionCache& cache) const {
  const RoutingTable::StreamBucket* bucket = table_.BucketFor(link, d.stream);
  if (bucket == nullptr) return std::nullopt;
  match_scratch_.clear();
  const std::vector<RoutingTable::BucketSlot>& slots = bucket->slots();
  const bool was_compiled = bucket->has_compiled();
  const CompiledMatcher& m = bucket->Compiled(d.stream);
  if (!was_compiled && matcher_compiles_ != nullptr) {
    matcher_compiles_->Increment();
  }
  MatchCompiled(m, d, &hit_scratch_);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    size_t k = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      const bool interpreted = slots[i].profile->Covers(d);
      const bool compiled = k < hit_scratch_.size() && hit_scratch_[k] == i;
      COSMOS_DCHECK_EQ(compiled, interpreted)
          << "compiled/interpreted divergence at slot " << i << " (entry "
          << slots[i].id << ") on stream " << d.stream;
      if (compiled) ++k;
    }
  }
#endif
  for (uint32_t h : hit_scratch_) match_scratch_.push_back(&slots[h]);
  if (match_scratch_.empty()) return std::nullopt;
  if (!early_projection) return d;

  // Union of the attributes any matching downstream profile still needs
  // (its projection set plus its filters' attributes, so re-evaluation at
  // later hops stays possible). Any profile wanting all attributes disables
  // projection on this link. When every bucket entry matched — the common
  // case for stream-level subscriptions — the bucket's cached union is the
  // answer and nothing is rebuilt.
  if (match_scratch_.size() == bucket->slots().size()) {
    bool wants_all = false;
    const std::vector<std::string>& needed = bucket->UnionRequired(&wants_all);
    if (wants_all) return d;
    return cache.Project(d, needed);
  }
  attr_scratch_.clear();
  for (const RoutingTable::BucketSlot* slot : match_scratch_) {
    if (slot->required.empty()) return d;  // wants all attributes
    // Slot `required` sets are sorted; merge-insert keeps the union sorted
    // so equal attribute sets share one projection-cache plan.
    for (const auto& attr : slot->required) {
      auto pos = std::lower_bound(attr_scratch_.begin(), attr_scratch_.end(),
                                  attr);
      if (pos == attr_scratch_.end() || *pos != attr) {
        attr_scratch_.insert(pos, attr);
      }
    }
  }
  return cache.Project(d, attr_scratch_);
}

}  // namespace cosmos
