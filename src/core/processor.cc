#include "core/processor.h"

#include <optional>
#include <utility>

#include "cbn/covering.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {
namespace {

GroupingOptions EffectiveGrouping(const ProcessorOptions& options) {
  GroupingOptions g = options.grouping;
  if (!options.enable_merging) {
    g.max_candidates = 0;  // never examine existing groups => singletons
  }
  return g;
}

// `profile` split by stream: each part keeps one stream's projection and
// filters, so it requires what `profile` requires of that stream.
std::map<std::string, Profile> SplitByStream(const Profile& profile) {
  std::map<std::string, Profile> parts;
  for (const std::string& stream : profile.streams()) {
    Profile& part = parts[stream];
    part.AddStream(stream, profile.ProjectionOf(stream));
    for (const Filter* f : profile.FiltersOf(stream)) part.AddFilter(*f);
  }
  return parts;
}

}  // namespace

Processor::Processor(NodeId node, const Catalog* catalog,
                     ContentBasedNetwork* network, ProcessorOptions options)
    : node_(node),
      catalog_(catalog),
      network_(network),
      options_(options),
      grouping_(catalog, EffectiveGrouping(options), options.rates,
                StrFormat("p%d_", node)),
      wrapper_(catalog) {
  wrapper_.SetTelemetry(options_.metrics, options_.tracer, node_);
}

Status Processor::SubmitQuery(const std::string& query_id,
                              const std::string& cql, NodeId user_node,
                              DeliveryCallback callback) {
  if (queries_.count(query_id) > 0) {
    return Status::AlreadyExists(
        StrFormat("query '%s'", query_id.c_str()));
  }
  COSMOS_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      ParseAndAnalyze(cql, *catalog_, "result_" + query_id));

  COSMOS_ASSIGN_OR_RETURN(GroupingEngine::AddResult placement,
                          grouping_.AddQuery(query_id, analyzed));
  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter(placement.created_new_group ? "core.groups_formed"
                                                 : "core.group_merges")
        ->Increment();
    options_.metrics->GetGauge("core.merge_benefit")
        ->Add(placement.marginal_benefit);
    if (placement.representative_changed) {
      options_.metrics->GetCounter("core.representative_changes")
          ->Increment();
    }
  }

  QueryRuntime rt;
  rt.analyzed = std::move(analyzed);
  rt.cql = cql;
  rt.group_id = placement.group_id;
  rt.user_node = user_node;
  rt.callback = std::move(callback);
  QueryRuntime& q = queries_.emplace(query_id, std::move(rt)).first->second;

  Status status = SyncGroup(placement.group_id);
  if (status.ok() && q.user_profile == 0) {
    // The representative did not change, so SyncGroup subscribed no
    // member: only this one needs its profile on the group's stream.
    Result<ProfileId> id = SubscribeMember(
        q, grouping_.FindGroup(placement.group_id)->representative);
    if (id.ok()) {
      q.user_profile = *id;
    } else {
      status = id.status();
    }
  }
  if (!status.ok()) {
    // Roll back the placement so the engine and runtime stay consistent.
    (void)grouping_.RemoveQuery(query_id);
    queries_.erase(query_id);
    return status;
  }
  return Status::OK();
}

Status Processor::UninstallGroup(GroupRuntime& rt) {
  if (!rt.spe_query_id.empty()) {
    COSMOS_RETURN_IF_ERROR(wrapper_.RemoveQuery(rt.spe_query_id));
    rt.spe_query_id.clear();
  }
  return Status::OK();
}

void Processor::UpdateSourceSubscriptions(uint64_t group_id,
                                          const SourceParts& before,
                                          const SourceParts& after) {
  std::set<std::string> touched;
  for (const auto& [stream, part] : before) touched.insert(stream);
  for (const auto& [stream, part] : after) touched.insert(stream);
  for (const std::string& stream : touched) {
    auto old_part = before.find(stream);
    auto new_part = after.find(stream);
    SourceSubscription& sub = sources_[stream];
    if (new_part != after.end() &&
        (old_part == before.end() ||
         ProfileCovers(new_part->second, old_part->second))) {
      // The group's need only grew: the union grows by the new part.
      sub.readers.insert(group_id);
      if (sub.id == 0) {
        Resubscribe(sub, new_part->second);
      } else if (!ProfileCovers(sub.profile, new_part->second)) {
        Resubscribe(sub, MergeProfiles(sub.profile, new_part->second));
      }
      continue;
    }
    // The group's need shrank or moved: recompute the union.
    if (new_part == after.end()) sub.readers.erase(group_id);
    if (sub.readers.empty()) {
      network_->Unsubscribe(sub.id);
      sources_.erase(stream);
      continue;
    }
    std::optional<Profile> merged;
    for (uint64_t reader : sub.readers) {
      const Profile& part = group_runtime_.at(reader).source_parts.at(stream);
      merged = merged ? MergeProfiles(*merged, part) : part;
    }
    if (!ProfileCovers(sub.profile, *merged) ||
        !ProfileCovers(*merged, sub.profile)) {
      Resubscribe(sub, std::move(*merged));
    }
  }
}

void Processor::Resubscribe(SourceSubscription& sub, Profile profile) {
  const ProfileId old = sub.id;
  sub.profile = std::move(profile);
  NativeSpeWrapper* wrapper = &wrapper_;
  sub.id = network_->Subscribe(
      node_, sub.profile,
      [wrapper](const std::string& stream, const Tuple& tuple) {
        wrapper->DeliverTuple(stream, tuple);
      });
  if (old != 0) network_->Unsubscribe(old);
}

Status Processor::SyncGroup(uint64_t group_id) {
  const QueryGroup* group = grouping_.FindGroup(group_id);
  GroupRuntime& rt = group_runtime_[group_id];

  if (group == nullptr) {
    // Group dissolved: tear everything down.
    COSMOS_RETURN_IF_ERROR(UninstallGroup(rt));
    const SourceParts before = std::move(rt.source_parts);
    group_runtime_.erase(group_id);
    UpdateSourceSubscriptions(group_id, before, {});
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("core.groups_dissolved")->Increment();
    }
    return Status::OK();
  }

  if (rt.installed_version == group->version) {
    // No member's profile changes. A member that joined without changing
    // the representative is subscribed by SubmitQuery.
    return Status::OK();
  }

  COSMOS_RETURN_IF_ERROR(UninstallGroup(rt));

  const std::string result_stream = group->ResultStreamName();
  const std::string spe_id = StrFormat(
      "grp_%llu", static_cast<unsigned long long>(group_id));

  // Install the representative on the SPE through the query wrapper; its
  // results are published into the CBN as the group's result stream,
  // which this processor advertises (paper §2: "the processors would
  // also advertise the result streams that they generate").
  ContentBasedNetwork* network = network_;
  NodeId node = node_;
  std::string cql = Unparse(group->representative);
  network_->Advertise(node_, result_stream);
  COSMOS_RETURN_IF_ERROR(wrapper_.InstallQuery(
      spe_id, cql, result_stream,
      [network, node, result_stream](const std::string& /*qid*/,
                                     const Tuple& tuple) {
        network->Publish(node, Datagram{result_stream, tuple});
      }));
  rt.spe_query_id = spe_id;
  rt.result_stream = result_stream;
  rt.installed_version = group->version;
  const SourceParts before = std::exchange(
      rt.source_parts,
      SplitByStream(ComposeSourceProfile(group->representative)));
  UpdateSourceSubscriptions(group_id, before, rt.source_parts);

  // Refresh every member's re-tightened user profile: they must point at
  // the renamed, possibly widened or narrowed, new result stream. Every
  // new profile is subscribed before the old ones retire.
  std::vector<ProfileId> retired;
  for (const auto& member_id : group->member_ids) {
    auto qit = queries_.find(member_id);
    if (qit == queries_.end()) continue;
    QueryRuntime& q = qit->second;
    if (q.user_profile != 0) retired.push_back(q.user_profile);
    q.user_profile = 0;
    Result<ProfileId> id = SubscribeMember(q, group->representative);
    if (!id.ok()) {
      for (ProfileId r : retired) network_->Unsubscribe(r);
      return id.status();
    }
    q.user_profile = *id;
  }
  for (ProfileId id : retired) network_->Unsubscribe(id);
  return Status::OK();
}

Result<ProfileId> Processor::SubscribeMember(const QueryRuntime& q,
                                             const AnalyzedQuery& rep) {
  COSMOS_ASSIGN_OR_RETURN(Profile profile, ComposeUserProfile(q.analyzed, rep));
  return network_->Subscribe(q.user_node, std::move(profile),
                             MakePresentationCallback(q.analyzed, rep,
                                                      q.callback));
}

std::vector<Processor::QueryRecord> Processor::DrainQueries() {
  std::vector<QueryRecord> records;
  records.reserve(queries_.size());
  for (const auto& [id, q] : queries_) {
    QueryRecord r;
    r.query_id = id;
    r.cql = q.cql;
    r.user_node = q.user_node;
    r.callback = q.callback;
    records.push_back(std::move(r));
  }
  // Tear down in a stable order; RemoveQuery keeps grouping and CBN state
  // consistent at every step.
  for (const auto& r : records) {
    (void)RemoveQuery(r.query_id);
  }
  return records;
}

void Processor::CollectFlows(std::vector<Flow>* flows) const {
  const RateEstimator& est = grouping_.rate_estimator();
  for (const auto& [gid, group] : grouping_.groups()) {
    // Source streams: publisher -> processor, filtered rate x row width.
    for (size_t i = 0; i < group.representative.sources().size(); ++i) {
      const auto& src = group.representative.sources()[i];
      auto info = catalog_->Lookup(src.from.stream);
      if (!info.ok() || info->publisher_node < 0) continue;
      Flow f;
      f.source = info->publisher_node;
      f.sink = node_;
      f.rate_bps = est.FilteredInputRate(group.representative, i) *
                   static_cast<double>(src.schema->EstimatedRowWidth() + 8);
      flows->push_back(f);
    }
    // Result streams: processor -> each member's user node at the member's
    // (post-split) rate.
    for (const auto& member_id : group.member_ids) {
      auto qit = queries_.find(member_id);
      if (qit == queries_.end()) continue;
      Flow f;
      f.source = node_;
      f.sink = qit->second.user_node;
      f.rate_bps = est.EstimateOutputRate(qit->second.analyzed);
      flows->push_back(f);
    }
  }
}

Status Processor::RemoveQuery(const std::string& query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrFormat("query '%s'", query_id.c_str()));
  }
  QueryRuntime& q = it->second;
  if (q.user_profile != 0) {
    network_->Unsubscribe(q.user_profile);
  }
  uint64_t group_id = q.group_id;
  queries_.erase(it);
  COSMOS_RETURN_IF_ERROR(grouping_.RemoveQuery(query_id).status());
  return SyncGroup(group_id);
}

}  // namespace cosmos
