#ifndef COSMOS_CORE_QUERY_GROUP_H_
#define COSMOS_CORE_QUERY_GROUP_H_

#include <string>
#include <vector>

#include "query/analyzer.h"

namespace cosmos {

// A group of merge-compatible queries sharing one representative query
// (paper §4): the representative runs on the SPE; member results are split
// out of its result stream by re-tightened user profiles.
struct QueryGroup {
  uint64_t group_id = 0;
  // Bumped whenever the representative changes, and only then: a member
  // removal that leaves Unparse(representative) as it was keeps the
  // version, the installed SPE query and every other member's subscription.
  // Result streams are named "<prefix>grp_<id>_v<version>" so stale
  // subscriptions never alias new ones. The prefix namespaces groups per
  // processor — COSMOS stream names are globally unique (paper §3).
  uint64_t version = 0;
  std::string name_prefix;

  std::vector<std::string> member_ids;
  std::vector<AnalyzedQuery> members;

  AnalyzedQuery representative;
  std::string signature;  // MergeSignature of the members

  // Estimated C(rep) at last recompute (bytes/sec).
  double representative_rate = 0.0;

  std::string ResultStreamName() const;

  size_t size() const { return members.size(); }
};

}  // namespace cosmos

#endif  // COSMOS_CORE_QUERY_GROUP_H_
