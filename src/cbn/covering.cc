#include "cbn/covering.h"

#include <algorithm>

#include "common/check.h"
#include "expr/implication.h"

namespace cosmos {

bool FilterCovers(const Filter& wide, const Filter& narrow) {
  if (wide.stream() != narrow.stream()) return false;
  // Covering is implication of clauses; implication must at minimum be
  // reflexive on live data or the cover relation loses its partial-order
  // structure (Theorem 2 relies on it).
  COSMOS_DCHECK(ClauseImplies(narrow.clause(), narrow.clause()))
      << "implication not reflexive for " << narrow.stream();
  return ClauseImplies(narrow.clause(), wide.clause());
}

namespace {

// Projection set `wide` admits everything `narrow` needs (empty = all).
bool ProjectionCovers(const std::vector<std::string>& wide,
                      const std::vector<std::string>& narrow) {
  if (wide.empty()) return true;
  if (narrow.empty()) return false;  // narrow wants all, wide is a subset
  for (const auto& a : narrow) {
    if (std::find(wide.begin(), wide.end(), a) == wide.end()) return false;
  }
  return true;
}

}  // namespace

bool ProfileCovers(const Profile& wide, const Profile& narrow) {
  for (const auto& stream : narrow.streams()) {
    if (!wide.WantsStream(stream)) return false;
    // Compare *required* attribute sets (projection plus filter-referenced
    // attributes), not raw projections: a covered profile's filters must
    // still be evaluable on what survives early projection to the
    // coverer's required set.
    if (!ProjectionCovers(wide.RequiredAttributes(stream),
                          narrow.RequiredAttributes(stream))) {
      return false;
    }
    auto wide_filters = wide.FiltersOf(stream);
    auto narrow_filters = narrow.FiltersOf(stream);
    if (wide_filters.empty()) continue;  // wide takes the whole stream
    if (narrow_filters.empty()) return false;  // narrow takes whole stream
    for (const auto* nf : narrow_filters) {
      bool covered = false;
      for (const auto* wf : wide_filters) {
        if (FilterCovers(*wf, *nf)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
  }
  return true;
}

Profile MergeProfiles(const Profile& a, const Profile& b) {
  Profile out;
  for (const auto& p : {&a, &b}) {
    for (const auto& stream : p->streams()) {
      // Widen projections to the union of *required* attribute sets so
      // early projection upstream keeps everything either side needs.
      std::vector<std::string> req = p->RequiredAttributes(stream);
      out.AddStream(stream, std::move(req));
      // "All attributes" dominates.
      if (p->ProjectionOf(stream).empty()) out.AddStream(stream, {});
    }
  }
  // Concatenate filters, pruning ones covered by an already-kept filter.
  std::vector<Filter> kept;
  auto consider = [&kept](const Filter& f) {
    for (const auto& k : kept) {
      if (FilterCovers(k, f)) return;
    }
    kept.push_back(f);
  };
  // Streams subscribed without filters swallow all filters of that stream.
  auto unconditional = [](const Profile& p, const std::string& stream) {
    return p.WantsStream(stream) && p.FiltersOf(stream).empty();
  };
  for (const auto& p : {&a, &b}) {
    const Profile& other = (p == &a) ? b : a;
    for (const auto& f : p->filters()) {
      if (unconditional(other, f.stream())) continue;
      consider(f);
    }
  }
  // Keep streams that either side requests unconditionally filter-free.
  for (const auto& f : kept) out.AddFilter(f);
  // The merge is a relaxation: the merged profile must cover both inputs,
  // or upstream routing would drop datagrams a subscriber still needs.
  COSMOS_DCHECK(ProfileCovers(out, a)) << "merged profile fails to cover a";
  COSMOS_DCHECK(ProfileCovers(out, b)) << "merged profile fails to cover b";
  return out;
}

}  // namespace cosmos
