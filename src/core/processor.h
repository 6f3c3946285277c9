#ifndef COSMOS_CORE_PROCESSOR_H_
#define COSMOS_CORE_PROCESSOR_H_

#include <map>
#include <memory>
#include <set>

#include "cbn/network.h"
#include "core/grouping.h"
#include "core/profile_composer.h"
#include "overlay/optimizer.h"
#include "query/unparser.h"
#include "spe/wrapper.h"

namespace cosmos {

struct ProcessorOptions {
  // Query merging on/off (off = one singleton group per query, the
  // traditional per-query delivery of Figure 3a).
  bool enable_merging = true;
  GroupingOptions grouping;
  RateEstimatorOptions rates;
  // Telemetry taps (either nullptr = off): grouping counters here, tuple
  // counters and evaluation spans on the embedded SPE. CosmosSystem fills
  // these from its own SystemOptions when it creates processors.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// A COSMOS processor (paper §2, Figure 2): the query layer of one node.
// The query-management module analyzes arriving CQL, maintains query
// groups, keeps the group representatives installed on the local SPE
// (through the pluggable wrapper), keeps one source-side CBN subscription
// per source stream in sync, publishes representative result streams back
// into the CBN, and installs the re-tightened per-user profiles that split
// shared result streams (Figure 3b).
class Processor {
 public:
  Processor(NodeId node, const Catalog* catalog,
            ContentBasedNetwork* network, ProcessorOptions options = {});

  NodeId node() const { return node_; }

  // Handles a user query: the result tuples are delivered to `callback` at
  // overlay node `user_node` through the CBN.
  Status SubmitQuery(const std::string& query_id, const std::string& cql,
                     NodeId user_node, DeliveryCallback callback);

  Status RemoveQuery(const std::string& query_id);

  // Everything needed to resubmit a query elsewhere (processor failover).
  struct QueryRecord {
    std::string query_id;
    std::string cql;
    NodeId user_node = -1;
    DeliveryCallback callback;
  };

  // Tears down every query (SPE installations, source subscription, user
  // profiles) and returns their records for re-homing.
  std::vector<QueryRecord> DrainQueries();

  const GroupingEngine& grouping() const { return grouping_; }
  const NativeSpeWrapper& wrapper() const { return wrapper_; }
  size_t num_queries() const { return queries_.size(); }

  // Representative queries currently installed on the SPE.
  size_t num_installed_representatives() const { return group_runtime_.size(); }

  // Appends this processor's persistent flows for the overlay optimizer:
  // source streams flowing publisher -> this node, and each member's split
  // result stream flowing this node -> the member's user node (rates from
  // the grouping engine's estimator).
  void CollectFlows(std::vector<Flow>* flows) const;

 private:
  // A representative's source profile split by stream: per stream it reads,
  // that stream's projection and filters.
  using SourceParts = std::map<std::string, Profile>;

  struct GroupRuntime {
    uint64_t installed_version = 0;
    std::string spe_query_id;
    std::string result_stream;
    // The installed representative's source parts, composed once per
    // installed version.
    SourceParts source_parts;
  };
  // The processor holds one data-layer subscription per source stream: the
  // union of its readers' parts for that stream. A tuple of the stream
  // matches only that subscription, and each plan re-applies its own
  // selection, so over-delivery is filtered at the SPE, never duplicated —
  // a tuple enters the engine exactly once.
  struct SourceSubscription {
    ProfileId id = 0;
    Profile profile;             // as subscribed
    std::set<uint64_t> readers;  // groups whose parts read the stream
  };
  struct QueryRuntime {
    AnalyzedQuery analyzed;
    std::string cql;  // original text, for failover resubmission
    uint64_t group_id = 0;
    NodeId user_node = -1;
    DeliveryCallback callback;
    ProfileId user_profile = 0;
  };

  // Brings the SPE installation and all member subscriptions of `group_id`
  // in line with the grouping engine's current state when its version
  // changed (or it dissolved). An unchanged version touches nothing.
  Status SyncGroup(uint64_t group_id);
  // Subscribes member `q`'s re-tightened profile on the result stream of
  // representative `rep`.
  Result<ProfileId> SubscribeMember(const QueryRuntime& q,
                                    const AnalyzedQuery& rep);
  Status UninstallGroup(GroupRuntime& rt);

  // Brings the source subscriptions in line after group `group_id`'s parts
  // changed from `before` to `after` (its runtime already holds `after`;
  // both empty maps when it has none). Only the streams of the two maps are
  // visited. A stream whose part only widened merges it into the
  // subscription unless the subscription already covers it; any other
  // stream's union is recomputed from its readers' parts. Either way the
  // CBN is touched only when the union changed, and a new subscription is
  // made before the old one retires, so coverage never lapses.
  void UpdateSourceSubscriptions(uint64_t group_id, const SourceParts& before,
                                 const SourceParts& after);
  void Resubscribe(SourceSubscription& sub, Profile profile);

  NodeId node_;
  const Catalog* catalog_;
  ContentBasedNetwork* network_;
  ProcessorOptions options_;
  GroupingEngine grouping_;
  NativeSpeWrapper wrapper_;
  std::map<uint64_t, GroupRuntime> group_runtime_;
  std::map<std::string, QueryRuntime> queries_;
  std::map<std::string, SourceSubscription> sources_;  // by source stream
};

}  // namespace cosmos

#endif  // COSMOS_CORE_PROCESSOR_H_
