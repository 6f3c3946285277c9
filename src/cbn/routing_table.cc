#include "cbn/routing_table.h"

#include <algorithm>

#include "common/check.h"

namespace cosmos {

const CompiledMatcher& RoutingTable::StreamBucket::Compiled() const {
  if (matcher_ == nullptr) {
    std::vector<const Profile*> profiles;
    profiles.reserve(slots_.size());
    for (const auto& slot : slots_) profiles.push_back(slot.profile);
    matcher_ = std::make_unique<CompiledMatcher>(stream_, profiles);
  }
  return *matcher_;
}

void RoutingTable::StreamBucket::Invalidate() {
  matcher_.reset();
  plans_.ForEach([](InputPlans& in) { in.stale = true; });
}

RoutingTable::StreamBucket::InputPlans& RoutingTable::StreamBucket::PlansOf(
    const std::shared_ptr<const Schema>& input) const {
  InputPlans& in = plans_.Get(input, [&] {
    InputPlans made;
    made.words = (input->num_attributes() + 63) / 64;
    return made;
  });
  if (!in.stale) return in;
  const size_t n = input->num_attributes();
  in.slot_columns.assign(slots_.size() * in.words, 0);
  columns_scratch_.assign(in.words, 0);
  for (size_t s = 0; s < slots_.size(); ++s) {
    uint64_t* cols = &in.slot_columns[s * in.words];
    const std::vector<std::string>& required = *slots_[s].required;
    for (size_t i = 0; i < n; ++i) {
      // Empty `required`: the slot needs every attribute.
      if (required.empty() ||
          std::binary_search(required.begin(), required.end(),
                             input->attribute(i).name)) {
        cols[i / 64] |= uint64_t{1} << (i % 64);
      }
    }
    for (size_t w = 0; w < in.words; ++w) columns_scratch_[w] |= cols[w];
  }
  in.all_plan = &PlanOf(in, *input, columns_scratch_);
  in.stale = false;
  return in;
}

const ProjectionPlan& RoutingTable::StreamBucket::PlanOf(
    InputPlans& in, const Schema& input, const Columns& cols) const {
  for (const auto& [key, plan] : in.plans) {
    if (key == cols) return *plan;
  }
  auto plan = std::make_unique<ProjectionPlan>(ProjectionPlan::Build(
      input,
      [&](size_t i) { return (cols[i / 64] >> (i % 64)) & uint64_t{1}; }));
  return *in.plans.emplace_back(cols, std::move(plan)).second;
}

const ProjectionPlan& RoutingTable::StreamBucket::PlanFor(
    const std::shared_ptr<const Schema>& input,
    const std::vector<uint32_t>& hits) const {
  InputPlans& in = PlansOf(input);
  if (hits.size() == slots_.size()) return *in.all_plan;
  columns_scratch_.assign(in.words, 0);
  for (uint32_t h : hits) {
    const uint64_t* cols = &in.slot_columns[h * in.words];
    for (size_t w = 0; w < in.words; ++w) columns_scratch_[w] |= cols[w];
  }
  return PlanOf(in, *input, columns_scratch_);
}

RoutingTable::RoutingTable(std::shared_ptr<StreamIds> streams,
                           std::vector<NodeId> link_order)
    : streams_(streams != nullptr ? std::move(streams)
                                  : std::make_shared<StreamIds>()),
      link_order_(std::move(link_order)) {}

uint32_t RoutingTable::RankOf(NodeId link) const {
  auto it = std::find(link_order_.begin(), link_order_.end(), link);
  return static_cast<uint32_t>(it - link_order_.begin());
}

RoutingTable::PreparedPtr RoutingTable::Prepare(ProfilePtr profile,
                                                StreamIds& streams) {
  COSMOS_CHECK(profile != nullptr) << "null profile";
  auto prepared = std::make_shared<PreparedProfile>();
  for (const auto& stream : profile->streams()) {
    prepared->streams.push_back(streams.Intern(stream));
    std::vector<std::string> required = profile->RequiredAttributes(stream);
    std::sort(required.begin(), required.end());
    prepared->required.push_back(std::move(required));
  }
  prepared->profile = std::move(profile);
  return prepared;
}

void RoutingTable::IndexEntry(NodeId link, const Entry& e) {
  const uint32_t rank = RankOf(link);
  const PreparedProfile& p = *e.prepared;
  for (size_t k = 0; k < p.streams.size(); ++k) {
    std::vector<LinkBucket>& links = by_stream_[p.streams[k]];
    auto it = std::find_if(links.begin(), links.end(), [&](const auto& lb) {
      return std::make_pair(lb.rank, lb.link) >= std::make_pair(rank, link);
    });
    if (it == links.end() || it->link != link) {
      it = links.insert(it, LinkBucket{link, rank,
                                       std::make_unique<StreamBucket>(
                                           streams_->Name(p.streams[k]))});
    }
    StreamBucket& bucket = *it->bucket;
    bucket.slots_.push_back(BucketSlot{e.id, e.profile.get(), &p.required[k]});
    bucket.Invalidate();
  }
}

void RoutingTable::DeindexEntry(NodeId link, const Entry& e) {
  for (StreamId sid : e.prepared->streams) {
    auto sit = by_stream_.find(sid);
    COSMOS_DCHECK(sit != by_stream_.end()) << "unindexed stream " << sid;
    std::vector<LinkBucket>& links = sit->second;
    auto it = std::find_if(links.begin(), links.end(),
                           [&](const auto& lb) { return lb.link == link; });
    COSMOS_DCHECK(it != links.end()) << "no bucket for indexed stream " << sid;
    auto& slots = it->bucket->slots_;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].id == e.id && slots[i].profile == e.profile.get()) {
        slots.erase(slots.begin() + static_cast<long>(i));
        break;
      }
    }
    if (slots.empty()) {
      links.erase(it);
      if (links.empty()) by_stream_.erase(sit);
    } else {
      it->bucket->Invalidate();
    }
  }
}

void RoutingTable::Add(NodeId link, ProfileId id, PreparedPtr prepared) {
  COSMOS_CHECK(prepared != nullptr) << "routing entry " << id;
  Entry e{id, prepared->profile, std::move(prepared)};
  IndexEntry(link, e);
  entries_[link].push_back(std::move(e));
  COSMOS_DCHECK(CheckInvariants());
}

void RoutingTable::Add(NodeId link, ProfileId id, ProfilePtr profile) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  Add(link, id, Prepare(std::move(profile), *streams_));
}

bool RoutingTable::Remove(NodeId link, ProfileId id) {
  auto it = entries_.find(link);
  if (it == entries_.end()) return false;
  auto& entries = it->second;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].id == id) {
      DeindexEntry(link, entries[i]);
      entries.erase(entries.begin() + static_cast<long>(i));
      if (entries.empty()) entries_.erase(it);
      COSMOS_DCHECK(CheckInvariants());
      return true;
    }
  }
  return false;
}

size_t RoutingTable::RemoveEverywhere(ProfileId id) {
  size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& entries = it->second;
    for (size_t i = 0; i < entries.size();) {
      if (entries[i].id == id) {
        DeindexEntry(it->first, entries[i]);
        entries.erase(entries.begin() + static_cast<long>(i));
        ++removed;
      } else {
        ++i;
      }
    }
    if (entries.empty()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  // The unsubscribe must leave no dangling entry for `id` on any link.
  COSMOS_DCHECK_EQ(CountOf(id), 0u) << "dangling routing entries";
  COSMOS_DCHECK(CheckInvariants());
  return removed;
}

size_t RoutingTable::CountOf(ProfileId id) const {
  size_t count = 0;
  for (const auto& [link, entries] : entries_) {
    for (const auto& e : entries) {
      if (e.id == id) ++count;
    }
  }
  return count;
}

bool RoutingTable::CheckInvariants() const {
  size_t expected_slots = 0;
  for (const auto& [link, entries] : entries_) {
    if (entries.empty()) return false;  // empty lists must be erased
    for (const auto& e : entries) {
      if (e.profile == nullptr || e.prepared == nullptr ||
          e.prepared->profile != e.profile ||
          e.prepared->streams.size() != e.profile->streams().size()) {
        return false;
      }
      expected_slots += e.profile->streams().size();
      // Every (entry, stream) pair must have its slot in (link, stream).
      for (const auto& stream : e.profile->streams()) {
        const StreamBucket* bucket = BucketFor(link, stream);
        if (bucket == nullptr) return false;
        bool found = false;
        for (const auto& slot : bucket->slots()) {
          if (slot.id == e.id && slot.profile == e.profile.get()) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
    }
  }
  // Every listed bucket sits under its own stream's id, once per link, in
  // link order; none is empty, and every slot is backed by an entry of its
  // link. The slot total equals the entries' stream count, so no slot is
  // duplicated or leaked.
  size_t total_slots = 0;
  for (const auto& [sid, links] : by_stream_) {
    if (links.empty()) return false;  // empty lists must be erased
    for (size_t k = 0; k < links.size(); ++k) {
      const LinkBucket& lb = links[k];
      if (lb.bucket == nullptr || lb.bucket->slots().empty()) return false;
      if (streams_->Find(lb.bucket->stream()) != sid) return false;
      if (lb.rank != RankOf(lb.link)) return false;
      if (k > 0 && std::make_pair(links[k - 1].rank, links[k - 1].link) >=
                       std::make_pair(lb.rank, lb.link)) {
        return false;  // out of order, or a link listed twice
      }
      auto eit = entries_.find(lb.link);
      if (eit == entries_.end()) return false;  // stray bucket
      total_slots += lb.bucket->slots().size();
      for (const auto& slot : lb.bucket->slots()) {
        if (slot.profile == nullptr) return false;
        bool backed = false;
        for (const auto& e : eit->second) {
          if (e.id == slot.id && e.profile.get() == slot.profile &&
              e.profile->WantsStream(lb.bucket->stream())) {
            backed = true;
            break;
          }
        }
        if (!backed) return false;
      }
    }
  }
  return total_slots == expected_slots;
}

const std::vector<RoutingTable::Entry>& RoutingTable::EntriesFor(
    NodeId link) const {
  static const std::vector<Entry> kEmpty;
  auto it = entries_.find(link);
  if (it == entries_.end()) return kEmpty;
  return it->second;
}

std::vector<NodeId> RoutingTable::Links() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const auto& [link, entries] : entries_) out.push_back(link);
  return out;
}

const std::vector<RoutingTable::LinkBucket>& RoutingTable::LinksFor(
    StreamId stream) const {
  static const std::vector<LinkBucket> kNone;
  auto it = by_stream_.find(stream);
  return it == by_stream_.end() ? kNone : it->second;
}

const RoutingTable::StreamBucket* RoutingTable::BucketFor(
    NodeId link, StreamId stream) const {
  for (const LinkBucket& lb : LinksFor(stream)) {
    if (lb.link == link) return lb.bucket.get();
  }
  return nullptr;
}

const RoutingTable::StreamBucket* RoutingTable::BucketFor(
    NodeId link, const std::string& stream) const {
  return BucketFor(link, streams_->Find(stream));
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
  for (const auto& [link, entries] : entries_) total += entries.size();
  return total;
}

size_t RoutingTable::TotalIndexedSlots() const {
  size_t total = 0;
  for (const auto& [sid, links] : by_stream_) {
    for (const LinkBucket& lb : links) total += lb.bucket->slots().size();
  }
  return total;
}

}  // namespace cosmos
