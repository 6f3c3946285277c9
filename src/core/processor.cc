#include "core/processor.h"

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
  queries_.emplace(query_id, std::move(rt));

  Status status = SyncGroup(placement.group_id);
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

void Processor::RefreshSourceSubscription() {
  // The union of every installed representative's source needs, as one
  // profile. Subscribe the new one before unsubscribing the old so source
  // coverage never lapses.
  bool any = false;
  Profile merged;
  for (const auto& [gid, group] : grouping_.groups()) {
    Profile p = ComposeSourceProfile(group.representative);
    merged = any ? MergeProfiles(merged, p) : std::move(p);
    any = true;
  }
  ProfileId old = source_profile_;
  if (any) {
    NativeSpeWrapper* wrapper = &wrapper_;
    source_profile_ = network_->Subscribe(
        node_, std::move(merged),
        [wrapper](const std::string& stream, const Tuple& tuple) {
          wrapper->DeliverTuple(stream, tuple);
        });
  } else {
    source_profile_ = 0;
  }
  if (old != 0) network_->Unsubscribe(old);
}

Status Processor::SyncGroup(uint64_t group_id) {
  const QueryGroup* group = grouping_.FindGroup(group_id);
  GroupRuntime& rt = group_runtime_[group_id];

  if (group == nullptr) {
    // Group dissolved: tear everything down.
    COSMOS_RETURN_IF_ERROR(UninstallGroup(rt));
    group_runtime_.erase(group_id);
    RefreshSourceSubscription();
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("core.groups_dissolved")->Increment();
    }
    return Status::OK();
  }

  if (rt.installed_version != group->version) {
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
    RefreshSourceSubscription();

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
      auto user_profile = ComposeUserProfile(q.analyzed, group->representative);
      if (!user_profile.ok()) {
        for (ProfileId id : retired) network_->Unsubscribe(id);
        return user_profile.status();
      }
      q.user_profile = network_->Subscribe(
          q.user_node, std::move(*user_profile),
          MakePresentationCallback(q.analyzed, group->representative,
                                   q.callback));
    }
    for (ProfileId id : retired) network_->Unsubscribe(id);
    return Status::OK();
  }

  // Version unchanged: only newly added members (no profile yet) need a
  // subscription.
  for (const auto& member_id : group->member_ids) {
    auto qit = queries_.find(member_id);
    if (qit == queries_.end()) continue;
    QueryRuntime& q = qit->second;
    if (q.user_profile != 0) continue;
    COSMOS_ASSIGN_OR_RETURN(
        Profile user_profile,
        ComposeUserProfile(q.analyzed, group->representative));
    q.user_profile = network_->Subscribe(
        q.user_node, std::move(user_profile),
        MakePresentationCallback(q.analyzed, group->representative,
                                 q.callback));
  }
  return Status::OK();
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
