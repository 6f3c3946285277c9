#ifndef COSMOS_CBN_ROUTER_H_
#define COSMOS_CBN_ROUTER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbn/routing_table.h"
#include "telemetry/registry.h"

namespace cosmos {

// Delivery callback of a local subscriber: receives the (possibly
// projected) tuple of `stream`.
using DeliveryCallback =
    std::function<void(const std::string& stream, const Tuple& tuple)>;

// Projects `d.tuple` onto `attrs` (schema attribute order preserved;
// attributes missing from the current schema — already projected away
// upstream — are skipped). Empty attrs = identity. Schemas are cached per
// (source schema, attribute set) in `cache` to keep the hot path cheap.
class ProjectionCache {
 public:
  Datagram Project(const Datagram& d, const std::vector<std::string>& attrs);

 private:
  // The key RETAINS the source schema: entries are looked up by address,
  // and holding the shared_ptr guarantees no other schema can ever be
  // allocated at a cached address (an address reuse would silently apply a
  // stale plan built for a different layout).
  struct Key {
    std::shared_ptr<const Schema> schema;
    std::string attrs_key;
    bool operator==(const Key& other) const {
      return schema.get() == other.schema.get() &&
             attrs_key == other.attrs_key;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>{}(k.schema.get()) ^
             std::hash<std::string>{}(k.attrs_key);
    }
  };
  struct Plan {
    std::shared_ptr<const Schema> schema;
    std::vector<size_t> indices;
    bool identity = false;
  };

  const Plan& PlanFor(const std::shared_ptr<const Schema>& schema,
                      const std::vector<std::string>& attrs);

  std::unordered_map<Key, Plan, KeyHash> plans_;
};

// One CBN node: the per-link routing table plus local subscriptions.
// Forwarding decisions are made here; the Network drives the hop-by-hop
// traversal and accounts link bytes.
class Router {
 public:
  explicit Router(NodeId id = -1) : id_(id) {}

  NodeId id() const { return id_; }
  RoutingTable& table() { return table_; }
  const RoutingTable& table() const { return table_; }

  void AddLocal(ProfileId id, ProfilePtr profile, DeliveryCallback callback);
  bool RemoveLocal(ProfileId id);
  const std::vector<std::pair<ProfileId, ProfilePtr>>& local_profiles() const {
    return local_profiles_;
  }

  // Delivers `d` to every matching local subscriber, applying the
  // subscriber's exact projection set P (last-hop projection, paper §3.1).
  // Only subscribers of `d.stream` are evaluated (per-stream index).
  // Returns the number of deliveries.
  size_t DeliverLocal(const Datagram& d, ProjectionCache& cache);

  // One forwarding decision: the datagram to put on the wire toward `link`
  // (early-projected to the union of required attributes of the matching
  // profiles when `early_projection`), or nullopt when no profile matches.
  // Evaluates only the (link, d.stream) bucket of the routing table and
  // reuses internal scratch buffers, so a decision allocates nothing on
  // the no-match and all-match paths.
  std::optional<Datagram> DecideForward(const Datagram& d, NodeId link,
                                        bool early_projection,
                                        ProjectionCache& cache) const;

  // Attaches (nullptr: detaches) matcher instruments in `metrics`:
  // cbn.matcher_compiles (bucket/local compilations), cbn.matcher_fallbacks
  // (residual evaluations behind the counting stage) and cbn.match_ns.
  // Handles are cached; the histogram samples every 64th match so timing
  // cannot erode the telemetry throughput budget.
  void SetTelemetry(MetricsRegistry* metrics);

 private:
  // Rebuilds local_by_stream_ after a removal shifted indices.
  void ReindexLocals();

  // The compiled matcher over the local subscribers of `stream` (profile
  // indices align with `indices`), built lazily and dropped on any local
  // subscription change.
  const CompiledMatcher& LocalMatcher(const std::string& stream,
                                      const std::vector<size_t>& indices);

  // Runs `m` over `d` into `*hits` with sampled timing and fallback
  // accounting.
  void MatchCompiled(const CompiledMatcher& m, const Datagram& d,
                     std::vector<uint32_t>* hits) const;

  NodeId id_;
  RoutingTable table_;
  std::vector<std::pair<ProfileId, ProfilePtr>> local_profiles_;
  std::vector<DeliveryCallback> local_callbacks_;
  // stream -> indices into local_profiles_ subscribed to it.
  std::unordered_map<std::string, std::vector<size_t>> local_by_stream_;
  // stream -> compiled matcher over its local_by_stream_ entry.
  std::unordered_map<std::string, std::unique_ptr<CompiledMatcher>>
      local_matchers_;
  Counter* matcher_compiles_ = nullptr;
  Counter* matcher_fallbacks_ = nullptr;
  Histogram* match_time_ns_ = nullptr;
  mutable uint64_t match_sample_ = 0;
  // Scratch for DecideForward (single-threaded per node, like the table).
  mutable std::vector<const RoutingTable::BucketSlot*> match_scratch_;
  mutable std::vector<std::string> attr_scratch_;
  mutable CompiledMatcher::Scratch matcher_scratch_;
  mutable std::vector<uint32_t> hit_scratch_;
  // DeliverLocal's hit buffer is swapped out while subscriber callbacks
  // run: a callback that publishes re-enters matching on this router, and
  // the nested Match must not clobber the list being delivered.
  mutable std::vector<uint32_t> local_hit_scratch_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_ROUTER_H_
