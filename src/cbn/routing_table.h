#ifndef COSMOS_CBN_ROUTING_TABLE_H_
#define COSMOS_CBN_ROUTING_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbn/matcher.h"
#include "cbn/profile.h"
#include "overlay/graph.h"

namespace cosmos {

// One node's content-based routing state: for every tree link (identified
// by the neighbor node id), the profiles subscribed somewhere downstream
// through that link. A datagram is forwarded onto a link iff some profile
// in the link's entry list covers it.
//
// Entries are additionally indexed per (link, stream): a forwarding
// decision for a datagram of stream S touches only the entries whose
// profile requests S, so matching is sub-linear in table size (the
// posting-list layout of large-scale pub/sub matching engines). Each
// bucket slot precomputes the profile's required attributes for its
// stream, and the bucket caches the union across slots, so early
// projection does not rebuild an attribute set per datagram.
class RoutingTable {
 public:
  struct Entry {
    ProfileId id = 0;
    ProfilePtr profile;
  };

  // One entry's projection into a (link, stream) bucket: the profile plus
  // its precomputed RequiredAttributes(stream), sorted. `required` empty
  // means the profile needs all attributes of the stream.
  struct BucketSlot {
    ProfileId id = 0;
    const Profile* profile = nullptr;
    std::vector<std::string> required;
  };

  // The entries of one link subscribed to one stream, plus a lazily
  // rebuilt union of their required attribute sets.
  class StreamBucket {
   public:
    const std::vector<BucketSlot>& slots() const { return slots_; }

    // Union of required attributes across slots (sorted, deduped).
    // Sets `*wants_all` when any slot needs all attributes, in which case
    // the returned vector is empty and must not be used for projection.
    const std::vector<std::string>& UnionRequired(bool* wants_all) const;

    // The compiled counting matcher over this bucket's slots (profile
    // indices align with slots()), built lazily on first use for `stream`
    // and dropped by the same mutation hooks that dirty the cached union.
    const CompiledMatcher& Compiled(const std::string& stream) const;

    // Whether a compiled matcher is currently built (telemetry counts a
    // compile when this flips to true).
    bool has_compiled() const { return matcher_ != nullptr; }

   private:
    friend class RoutingTable;
    std::vector<BucketSlot> slots_;
    mutable std::vector<std::string> union_required_;
    mutable bool union_wants_all_ = false;
    mutable bool union_dirty_ = true;
    mutable std::unique_ptr<CompiledMatcher> matcher_;
  };

  void Add(NodeId link, ProfileId id, ProfilePtr profile);

  // Removes the entry with `id` on `link`; true when something was removed.
  bool Remove(NodeId link, ProfileId id);

  // Removes `id` from every link; returns number of entries removed.
  size_t RemoveEverywhere(ProfileId id);

  // True when an entry with `id` exists on `link`.
  bool Contains(NodeId link, ProfileId id) const;

  // Entries installed for `link` (empty when none).
  const std::vector<Entry>& EntriesFor(NodeId link) const;

  // Links that have at least one entry.
  std::vector<NodeId> Links() const;

  // The (link, stream) bucket; nullptr when no entry on `link` requests
  // `stream`. This is the forwarding hot path's view of the table.
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
  // holds a null profile, and the per-stream index is consistent with the
  // entry list (every (entry, stream) pair has exactly one bucket slot, no
  // bucket is empty, no slot is stray). DCHECK'd after every mutation so a
  // dangling subscription or index drift cannot survive unnoticed.
  bool CheckInvariants() const;

 private:
  struct LinkState {
    std::vector<Entry> entries;
    std::unordered_map<std::string, StreamBucket> by_stream;
  };

  // Adds/removes the bucket slots of one entry (one per profile stream).
  static void IndexEntry(LinkState& state, ProfileId id, const Profile& p);
  static void DeindexEntry(LinkState& state, ProfileId id, const Profile& p);

  std::map<NodeId, LinkState> per_link_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_ROUTING_TABLE_H_
