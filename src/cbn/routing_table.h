#ifndef COSMOS_CBN_ROUTING_TABLE_H_
#define COSMOS_CBN_ROUTING_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbn/datagram.h"
#include "cbn/matcher.h"
#include "cbn/profile.h"
#include "overlay/graph.h"

namespace cosmos {

// One node's content-based routing state: for every tree link (identified
// by the neighbor node id), the profiles subscribed somewhere downstream
// through that link. A datagram is forwarded onto a link iff some profile
// in the link's entry list covers it.
//
// Entries are additionally indexed per stream id: for each stream, the
// (link, bucket) pairs of the links with entries requesting it, in link
// order. A node visit for a datagram of stream S reads that one list and
// touches only the buckets on it, so matching is sub-linear in table size
// (the posting-list layout of large-scale pub/sub matching engines). Each
// bucket slot precomputes the profile's required attributes for its
// stream, and the bucket keeps the early-projection plans it has used,
// per input schema, so a forward builds no attribute set.
class RoutingTable {
 public:
  // A profile ready to index: the ids of its streams and, per stream, its
  // RequiredAttributes, sorted (empty: every attribute). A network prepares
  // each subscription once and shares it with every entry it installs.
  struct PreparedProfile {
    ProfilePtr profile;
    std::vector<StreamId> streams;
    std::vector<std::vector<std::string>> required;  // aligned with streams
  };
  using PreparedPtr = std::shared_ptr<const PreparedProfile>;
  static PreparedPtr Prepare(ProfilePtr profile, StreamIds& streams);

  struct Entry {
    ProfileId id = 0;
    ProfilePtr profile;
    PreparedPtr prepared;
  };

  // One entry's projection into a (link, stream) bucket: the profile plus
  // its sorted required attributes for the stream (owned by the entry's
  // PreparedProfile). Empty `*required` means the profile needs all
  // attributes of the stream.
  struct BucketSlot {
    ProfileId id = 0;
    const Profile* profile = nullptr;
    const std::vector<std::string>* required = nullptr;
  };

  // The entries of one link subscribed to one stream, with the compiled
  // matcher and the projection plans built over them. A change to the slots
  // drops the matcher and recomputes the slots' column sets; a plan depends
  // only on its input schema and column set, so the plans stay.
  class StreamBucket {
   public:
    explicit StreamBucket(std::string stream) : stream_(std::move(stream)) {}

    const std::string& stream() const { return stream_; }
    const std::vector<BucketSlot>& slots() const { return slots_; }

    // The compiled counting matcher over this bucket's slots (profile
    // indices align with slots()), built on first use.
    const CompiledMatcher& Compiled() const;

    // Whether a compiled matcher is currently built (telemetry counts a
    // compile when this flips to true).
    bool has_compiled() const { return matcher_ != nullptr; }

    // Early projection of a tuple of `input` matched by the slots `hits`
    // (ascending indices into slots()): its columns that any hit slot
    // requires, the identity when some hit slot needs every attribute.
    // Required attributes already projected away upstream are skipped.
    // Plans are kept per (input schema, column set), so steady state
    // allocates nothing.
    const ProjectionPlan& PlanFor(const std::shared_ptr<const Schema>& input,
                                  const std::vector<uint32_t>& hits) const;

   private:
    friend class RoutingTable;

    // Column sets are bit sets over the input schema's columns.
    using Columns = std::vector<uint64_t>;
    // What the bucket knows about one input schema.
    struct InputPlans {
      size_t words = 0;
      // The slots changed since slot_columns and all_plan were computed.
      bool stale = true;
      std::vector<uint64_t> slot_columns;  // slots_.size() x words
      const ProjectionPlan* all_plan = nullptr;  // union over every slot
      std::vector<std::pair<Columns, std::unique_ptr<ProjectionPlan>>> plans;
    };

    InputPlans& PlansOf(const std::shared_ptr<const Schema>& input) const;
    const ProjectionPlan& PlanOf(InputPlans& in, const Schema& input,
                                 const Columns& cols) const;
    void Invalidate();

    std::string stream_;
    std::vector<BucketSlot> slots_;
    mutable std::unique_ptr<CompiledMatcher> matcher_;
    mutable SchemaMemo<InputPlans> plans_;
    mutable Columns columns_scratch_;
  };

  // One link's bucket on a stream's list.
  struct LinkBucket {
    NodeId link = -1;
    // Position of `link` in the table's link order (links outside it sort
    // after, by id).
    uint32_t rank = 0;
    std::unique_ptr<StreamBucket> bucket;
  };

  // `streams` interns the profiles' stream names (nullptr: a table-owned
  // instance). `link_order` orders each stream's link list; a network
  // passes the node's tree neighbors, so a visit forwards in their order.
  explicit RoutingTable(std::shared_ptr<StreamIds> streams = nullptr,
                        std::vector<NodeId> link_order = {});
  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;
  RoutingTable(RoutingTable&&) = default;
  RoutingTable& operator=(RoutingTable&&) = default;

  const std::shared_ptr<StreamIds>& streams() const { return streams_; }

  void Add(NodeId link, ProfileId id, PreparedPtr prepared);
  // Prepares `profile` against streams() first.
  void Add(NodeId link, ProfileId id, ProfilePtr profile);

  // Removes the entry with `id` on `link`; true when something was removed.
  bool Remove(NodeId link, ProfileId id);

  // Removes `id` from every link; returns number of entries removed.
  size_t RemoveEverywhere(ProfileId id);

  // Entries installed for `link` (empty when none).
  const std::vector<Entry>& EntriesFor(NodeId link) const;

  // Links that have at least one entry.
  std::vector<NodeId> Links() const;

  // The links with entries requesting `stream`, in link order, each with
  // its bucket. This is the forwarding hot path's view of the table.
  const std::vector<LinkBucket>& LinksFor(StreamId stream) const;

  // The (link, stream) bucket; nullptr when no entry on `link` requests
  // `stream`.
  const StreamBucket* BucketFor(NodeId link, StreamId stream) const;
  const StreamBucket* BucketFor(NodeId link, const std::string& stream) const;

  // True when any profile on `link` covers `d`.
  bool LinkCovers(NodeId link, const Datagram& d) const;

  // Appends the profiles on `link` covering `d` to `*out` (caller-owned
  // scratch; not cleared here so callers can reuse one vector).
  void MatchingProfiles(NodeId link, const Datagram& d,
                        std::vector<const Profile*>* out) const;

  // Allocating convenience wrapper for tests and cold paths.
  std::vector<const Profile*> MatchingProfiles(NodeId link,
                                               const Datagram& d) const;

  size_t TotalEntries() const;

  // Sum of bucket slot counts across all links: each entry contributes one
  // slot per stream its profile requests, so for single-stream profiles
  // this equals TotalEntries().
  size_t TotalIndexedSlots() const;

  // Number of entries across all links carrying `id`.
  size_t CountOf(ProfileId id) const;

  // Structural invariants: no link maps to an empty entry list, no entry
  // holds a null profile, and the per-stream index mirrors the entry list
  // exactly: every (entry, stream) pair has one slot in the bucket of
  // (link, stream); each bucket is listed once, under its own stream id,
  // in link order, and is not empty; no slot is stray. DCHECK'd after every
  // mutation so a dangling subscription or index drift cannot survive
  // unnoticed.
  bool CheckInvariants() const;

 private:
  uint32_t RankOf(NodeId link) const;
  // Adds/removes the bucket slots of one entry (one per profile stream).
  void IndexEntry(NodeId link, const Entry& e);
  void DeindexEntry(NodeId link, const Entry& e);

  std::shared_ptr<StreamIds> streams_;
  std::vector<NodeId> link_order_;
  std::map<NodeId, std::vector<Entry>> entries_;
  // StreamId -> its links' buckets, sorted by (rank, link); streams with
  // no bucket have no key.
  std::unordered_map<StreamId, std::vector<LinkBucket>> by_stream_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_ROUTING_TABLE_H_
