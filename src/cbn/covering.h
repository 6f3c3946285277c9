#ifndef COSMOS_CBN_COVERING_H_
#define COSMOS_CBN_COVERING_H_

#include "cbn/profile.h"

namespace cosmos {

// Covering relations between filters and profiles, used for subscription
// aggregation: a processor merges the source profiles of its groups into
// one subscription, dropping filters another filter covers. All tests are
// sound and conservative — a "true" is a guarantee, a "false" means "could
// not prove".

// True iff every datagram covered by `narrow` is covered by `wide`
// (requires same stream and clause implication).
bool FilterCovers(const Filter& wide, const Filter& narrow);

// True iff every datagram covered by `narrow` is covered by `wide`, and
// `wide` retains at least the attributes `narrow` needs — its projection
// plus the attributes its filters reference, so the narrow profile stays
// evaluable downstream of early projection ("all" covers anything).
bool ProfileCovers(const Profile& wide, const Profile& narrow);

// Union of two profiles: S/P unions, filter concatenation with
// covered-filter pruning. The result covers exactly the union of the two
// coverages (projections widen to the union of required sets).
Profile MergeProfiles(const Profile& a, const Profile& b);

}  // namespace cosmos

#endif  // COSMOS_CBN_COVERING_H_
