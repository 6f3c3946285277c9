#include "cbn/routing_table.h"

#include <algorithm>

#include "common/check.h"

namespace cosmos {

const std::vector<std::string>& RoutingTable::StreamBucket::UnionRequired(
    bool* wants_all) const {
  if (union_dirty_) {
    union_required_.clear();
    union_wants_all_ = false;
    for (const auto& slot : slots_) {
      if (slot.required.empty()) {  // needs all attributes
        union_wants_all_ = true;
        union_required_.clear();
        break;
      }
      // Slots keep `required` sorted; merge-insert keeps the union sorted
      // (and therefore a deterministic projection-cache key).
      for (const auto& attr : slot.required) {
        auto it = std::lower_bound(union_required_.begin(),
                                   union_required_.end(), attr);
        if (it == union_required_.end() || *it != attr) {
          union_required_.insert(it, attr);
        }
      }
    }
    union_dirty_ = false;
  }
  *wants_all = union_wants_all_;
  return union_required_;
}

const CompiledMatcher& RoutingTable::StreamBucket::Compiled(
    const std::string& stream) const {
  if (matcher_ == nullptr) {
    std::vector<const Profile*> profiles;
    profiles.reserve(slots_.size());
    for (const auto& slot : slots_) profiles.push_back(slot.profile);
    matcher_ = std::make_unique<CompiledMatcher>(stream, profiles);
  }
  return *matcher_;
}

void RoutingTable::IndexEntry(LinkState& state, ProfileId id,
                              const Profile& p) {
  for (const auto& stream : p.streams()) {
    StreamBucket& bucket = state.by_stream[stream];
    std::vector<std::string> required = p.RequiredAttributes(stream);
    std::sort(required.begin(), required.end());
    bucket.slots_.push_back(BucketSlot{id, &p, std::move(required)});
    bucket.union_dirty_ = true;
    bucket.matcher_.reset();
  }
}

void RoutingTable::DeindexEntry(LinkState& state, ProfileId id,
                                const Profile& p) {
  for (const auto& stream : p.streams()) {
    auto it = state.by_stream.find(stream);
    COSMOS_DCHECK(it != state.by_stream.end())
        << "no bucket for indexed stream " << stream;
    auto& slots = it->second.slots_;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].id == id && slots[i].profile == &p) {
        slots.erase(slots.begin() + static_cast<long>(i));
        break;
      }
    }
    if (slots.empty()) {
      state.by_stream.erase(it);
    } else {
      it->second.union_dirty_ = true;
      it->second.matcher_.reset();
    }
  }
}

void RoutingTable::Add(NodeId link, ProfileId id, ProfilePtr profile) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  LinkState& state = per_link_[link];
  IndexEntry(state, id, *profile);
  state.entries.push_back(Entry{id, std::move(profile)});
  COSMOS_DCHECK(CheckInvariants());
}

bool RoutingTable::Remove(NodeId link, ProfileId id) {
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return false;
  LinkState& state = it->second;
  auto& entries = state.entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].id == id) {
      DeindexEntry(state, id, *entries[i].profile);
      entries.erase(entries.begin() + static_cast<long>(i));
      if (entries.empty()) per_link_.erase(it);
      COSMOS_DCHECK(CheckInvariants());
      return true;
    }
  }
  return false;
}

size_t RoutingTable::RemoveEverywhere(ProfileId id) {
  size_t removed = 0;
  for (auto it = per_link_.begin(); it != per_link_.end();) {
    LinkState& state = it->second;
    auto& entries = state.entries;
    for (size_t i = 0; i < entries.size();) {
      if (entries[i].id == id) {
        DeindexEntry(state, id, *entries[i].profile);
        entries.erase(entries.begin() + static_cast<long>(i));
        ++removed;
      } else {
        ++i;
      }
    }
    if (entries.empty()) {
      it = per_link_.erase(it);
    } else {
      ++it;
    }
  }
  // The unsubscribe must leave no dangling entry for `id` on any link.
  COSMOS_DCHECK_EQ(CountOf(id), 0u) << "dangling routing entries";
  COSMOS_DCHECK(CheckInvariants());
  return removed;
}

bool RoutingTable::Contains(NodeId link, ProfileId id) const {
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return false;
  for (const auto& e : it->second.entries) {
    if (e.id == id) return true;
  }
  return false;
}

size_t RoutingTable::CountOf(ProfileId id) const {
  size_t count = 0;
  for (const auto& [link, state] : per_link_) {
    for (const auto& e : state.entries) {
      if (e.id == id) ++count;
    }
  }
  return count;
}

bool RoutingTable::CheckInvariants() const {
  for (const auto& [link, state] : per_link_) {
    if (state.entries.empty()) return false;  // empty lists must be erased
    size_t expected_slots = 0;
    for (const auto& e : state.entries) {
      if (e.profile == nullptr) return false;
      expected_slots += e.profile->streams().size();
      // Every (entry, stream) pair must be indexed.
      for (const auto& stream : e.profile->streams()) {
        auto it = state.by_stream.find(stream);
        if (it == state.by_stream.end()) return false;
        bool found = false;
        for (const auto& slot : it->second.slots()) {
          if (slot.id == e.id && slot.profile == e.profile.get()) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
    }
    // No empty or stray buckets/slots; slot count matches the entries'
    // stream count exactly (no duplicate or leaked slots).
    size_t total_slots = 0;
    for (const auto& [stream, bucket] : state.by_stream) {
      if (bucket.slots().empty()) return false;
      total_slots += bucket.slots().size();
      for (const auto& slot : bucket.slots()) {
        if (slot.profile == nullptr) return false;
        bool backed = false;
        for (const auto& e : state.entries) {
          if (e.id == slot.id && e.profile.get() == slot.profile &&
              e.profile->WantsStream(stream)) {
            backed = true;
            break;
          }
        }
        if (!backed) return false;
      }
    }
    if (total_slots != expected_slots) return false;
  }
  return true;
}

const std::vector<RoutingTable::Entry>& RoutingTable::EntriesFor(
    NodeId link) const {
  static const std::vector<Entry> kEmpty;
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return kEmpty;
  return it->second.entries;
}

std::vector<NodeId> RoutingTable::Links() const {
  std::vector<NodeId> out;
  out.reserve(per_link_.size());
  for (const auto& [link, state] : per_link_) out.push_back(link);
  return out;
}

const RoutingTable::StreamBucket* RoutingTable::BucketFor(
    NodeId link, const std::string& stream) const {
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return nullptr;
  auto bit = it->second.by_stream.find(stream);
  if (bit == it->second.by_stream.end()) return nullptr;
  return &bit->second;
}

bool RoutingTable::LinkCovers(NodeId link, const Datagram& d) const {
  const StreamBucket* bucket = BucketFor(link, d.stream);
  if (bucket == nullptr) return false;
  for (const auto& slot : bucket->slots()) {
    if (slot.profile->Covers(d)) return true;
  }
  return false;
}

void RoutingTable::MatchingProfiles(NodeId link, const Datagram& d,
                                    std::vector<const Profile*>* out) const {
  const StreamBucket* bucket = BucketFor(link, d.stream);
  if (bucket == nullptr) return;
  for (const auto& slot : bucket->slots()) {
    if (slot.profile->Covers(d)) out->push_back(slot.profile);
  }
}

std::vector<const Profile*> RoutingTable::MatchingProfiles(
    NodeId link, const Datagram& d) const {
  std::vector<const Profile*> out;
  MatchingProfiles(link, d, &out);
  return out;
}

size_t RoutingTable::TotalEntries() const {
  size_t total = 0;
  for (const auto& [link, state] : per_link_) total += state.entries.size();
  return total;
}

size_t RoutingTable::TotalIndexedSlots() const {
  size_t total = 0;
  for (const auto& [link, state] : per_link_) {
    for (const auto& [stream, bucket] : state.by_stream) {
      total += bucket.slots().size();
    }
  }
  return total;
}

}  // namespace cosmos
