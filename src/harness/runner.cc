#include "harness/runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "core/profile_composer.h"
#include "core/system.h"
#include "harness/oracle.h"
#include "overlay/spanning_tree.h"
#include "sim/simulator.h"
#include "telemetry/registry.h"
#include "telemetry/snapshot.h"
#include "telemetry/trace.h"

namespace cosmos {

namespace {

// Canonical multiset key of a result tuple: timestamp plus every attribute
// as name=value. Doubles print as hexfloats so two values collide only when
// bit-identical — the oracle and the system compute on the same doubles, so
// exact comparison is the correct bar. The stream name is deliberately
// excluded (system results are named result_<id>, oracle ones oracle_<tag>).
std::string TupleKey(const Tuple& t) {
  std::string key =
      StrFormat("@%lld|", static_cast<long long>(t.timestamp()));
  const Schema& schema = *t.schema();
  for (size_t i = 0; i < t.num_values(); ++i) {
    key += schema.attribute(i).name;
    key += '=';
    const Value& v = t.value(i);
    switch (v.type()) {
      case ValueType::kInt64:
        key += StrFormat("i%lld", static_cast<long long>(v.AsInt64()));
        break;
      case ValueType::kDouble:
        key += StrFormat("d%a", v.AsDouble());
        break;
      case ValueType::kString:
        key += "s" + v.AsString();
        break;
      case ValueType::kBool:
        key += v.AsBool() ? "b1" : "b0";
        break;
      case ValueType::kNull:
        key += "null";
        break;
    }
    key += ';';
  }
  return key;
}

struct Multiset {
  std::map<std::string, int> counts;
  std::map<std::string, std::string> sample;  // key -> Tuple::ToString()

  void Add(const Tuple& t) {
    std::string key = TupleKey(t);
    if (++counts[key] == 1) sample[key] = t.ToString();
  }
};

Multiset ToMultiset(const std::vector<Tuple>& tuples) {
  Multiset m;
  for (const Tuple& t : tuples) m.Add(t);
  return m;
}

// Appends up to `limit` samples of keys where `a` has more copies than `b`.
std::string DescribeExcess(const Multiset& a, const Multiset& b,
                           size_t limit) {
  std::string out;
  size_t total = 0;
  size_t shown = 0;
  for (const auto& [key, count] : a.counts) {
    auto it = b.counts.find(key);
    int other = it == b.counts.end() ? 0 : it->second;
    if (count <= other) continue;
    total += static_cast<size_t>(count - other);
    if (shown < limit) {
      out += StrFormat("\n      %dx %s", count - other,
                       a.sample.at(key).c_str());
      ++shown;
    }
  }
  if (total == 0) return "";
  return StrFormat(" %zu tuple(s):%s%s", total, out.c_str(),
                   total > shown ? "\n      ..." : "");
}

// True when every tuple of `subset` appears (with multiplicity) in
// `superset`.
bool ContainedIn(const Multiset& subset, const Multiset& superset) {
  for (const auto& [key, count] : subset.counts) {
    auto it = superset.counts.find(key);
    if (it == superset.counts.end() || it->second < count) return false;
  }
  return true;
}

// Sum of a stream-labeled counter family, e.g. every cbn.dropped{stream=*}.
uint64_t SumFamily(const MetricsRegistry& metrics, const std::string& family) {
  const std::string prefix = family + "{";
  uint64_t total = 0;
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind(prefix, 0) == 0) total += c->value();
  }
  return total;
}

// The value of arg `key` of a traced event, unquoted; `absent` without it.
std::string ArgOf(const Tracer::Event& e, const char* key,
                  const char* absent) {
  for (const auto& [k, v] : e.args) {
    if (k != key) continue;
    if (v.size() >= 2 && v.front() == '"') return v.substr(1, v.size() - 2);
    return v;
  }
  return absent;
}

// The last `limit` CBN events of `tracer`, one line each.
std::vector<std::string> CbnTraceTail(const Tracer& tracer, size_t limit) {
  std::vector<const Tracer::Event*> cbn;
  for (const Tracer::Event& e : tracer.events()) {
    if (e.category == "cbn") cbn.push_back(&e);
  }
  std::vector<std::string> lines;
  for (size_t i = cbn.size() - std::min(limit, cbn.size()); i < cbn.size();
       ++i) {
    const Tracer::Event& e = *cbn[i];
    lines.push_back(StrFormat(
        "%-8s node=%-3d peer=%-3s count=%s stream=%s ts=%s", e.name.c_str(),
        e.tid, ArgOf(e, "peer", "-1").c_str(), ArgOf(e, "count", "0").c_str(),
        ArgOf(e, "stream", "").c_str(), ArgOf(e, "ts", "").c_str()));
  }
  return lines;
}

// Can Repair() reconnect the tree if `candidate` also fails? Mirrors the
// splice search: overlay edges minus failed links must stay connected.
bool RepairableAfter(const DstScenario& s, const ContentBasedNetwork& net,
                     NodeId u, NodeId v) {
  const auto candidate = DisseminationTree::EdgeKey(u, v);
  Graph g(s.num_nodes);
  for (const Edge& e : s.overlay.edges()) {
    const auto key = DisseminationTree::EdgeKey(e.u, e.v);
    if (key == candidate) continue;
    if (net.failed_links().count(key) > 0) continue;
    COSMOS_CHECK(g.AddEdge(e.u, e.v, e.weight).ok());
  }
  return g.IsConnected();
}

}  // namespace

std::string DstReport::Summary() const {
  std::string verdict =
      ok ? "OK" : StrFormat("FAILED (%zu check violations)", failures.size());
  return StrFormat(
      "%s — events %zu run / %zu skipped, tuples %zu, queries %zu, "
      "results %zu delivered / %zu expected, recovered %llu, lost %llu, "
      "final groups %zu",
      verdict.c_str(), events_executed, events_skipped, tuples_injected,
      queries_submitted, results_delivered, results_expected,
      static_cast<unsigned long long>(recovered_datagrams),
      static_cast<unsigned long long>(lost_datagrams), final_groups);
}

DstReport RunScenario(const DstScenario& s, const DstRunOptions& options) {
  DstReport report;
  auto fail = [&report](std::string message) {
    report.ok = false;
    report.failures.push_back(std::move(message));
  };

  std::unique_ptr<Simulator> sim;
  if (s.use_simulator) sim = std::make_unique<Simulator>();
  // Every run gets an isolated registry (check 5 audits it) and, on
  // request, its own tracer for the Chrome trace export and the CBN trace.
  MetricsRegistry metrics;
  Tracer tracer;
  if (options.capture_trace) tracer.Enable();
  SystemOptions sys_options;
  sys_options.metrics = &metrics;
  sys_options.tracer = options.capture_trace ? &tracer : nullptr;
  CosmosSystem system(s.tree, sys_options, sim.get());
  system.SetOverlay(s.overlay);
  system.EnableInjectionLog();
  auto export_artifacts = [&] {
    if (options.capture_trace) {
      report.chrome_trace_json = tracer.ToChromeTraceJson();
      report.trace = CbnTraceTail(tracer, options.trace_limit);
    }
    if (options.capture_metrics_json) {
      report.metrics_json =
          SnapshotToJson(TakeSnapshot(metrics, sim ? sim->now() : 0));
    }
  };

  for (NodeId p : s.processors) {
    Status st = system.AddProcessor(p);
    if (!st.ok()) {
      fail(StrFormat("AddProcessor(%d): %s", p, st.ToString().c_str()));
      return report;
    }
  }
  for (const auto& src : s.sources) {
    Status st = system.RegisterSource(src.schema, src.rate_tuples_per_sec,
                                      src.publisher);
    if (!st.ok()) {
      fail(StrFormat("RegisterSource(%s): %s", src.stream.c_str(),
                     st.ToString().c_str()));
      return report;
    }
  }

  // Order invariant: the harness injects every source stream in event-time
  // order and each stream has one publisher, so each processor node must
  // receive each source stream in that order too (window joins evict
  // against each port's latest timestamp and rely on it). One observer
  // subscription per (processor node, source stream) sees what the node
  // receives; it projects to one attribute so links keep no more than the
  // queries' own projections need beyond it. The first reordering fails
  // the run at once. The observers' state is shared, like `delivered`
  // below, so it stays valid for the system's whole lifetime.
  struct OrderWatch {
    std::map<std::pair<NodeId, std::string>, Timestamp> last_seen;
    bool reordered = false;
  };
  auto order = std::make_shared<OrderWatch>();
  for (NodeId p : s.processors) {
    for (const auto& src : s.sources) {
      Profile observer;
      observer.AddStream(src.stream, {"timestamp"});
      system.network().Subscribe(
          p, std::move(observer),
          [order, &fail, p](const std::string& stream, const Tuple& t) {
            auto [it, first] =
                order->last_seen.try_emplace({p, stream}, t.timestamp());
            if (first || order->reordered) return;
            if (t.timestamp() < it->second) {
              order->reordered = true;
              fail(StrFormat("order: processor node %d received %s@%lld "
                             "after %s@%lld",
                             p, stream.c_str(),
                             static_cast<long long>(t.timestamp()),
                             stream.c_str(),
                             static_cast<long long>(it->second)));
            }
            it->second = t.timestamp();
          });
    }
  }

  GroundTruthOracle oracle(&system.catalog());
  // Shared so the per-query delivery callbacks (copied into CBN
  // subscriptions) stay valid for the system's whole lifetime.
  auto delivered =
      std::make_shared<std::map<std::string, std::vector<Tuple>>>();
  std::map<std::string, std::string> tag_to_id;  // live queries only
  std::map<std::string, std::string> id_to_tag;  // every submitted query
  std::map<std::string, uint64_t> injected_per_stream;  // for check 5

  // Sticky across the whole run (a later RemoveQuery may uninstall the
  // profile): did any installed subscription ever carry a residual-bearing
  // filter? Check 5 allows cbn.matcher_fallbacks > 0 only in that case.
  bool saw_residual_profile = false;
  auto note_residual_profiles = [&] {
    if (saw_residual_profile) return;
    system.network().ForEachSubscription([&](NodeId, const Profile& p) {
      for (const Filter& f : p.filters()) {
        if (f.has_residual()) saw_residual_profile = true;
      }
    });
  };

  auto submit = [&](const DstQuerySpec& q) {
    Status ost = oracle.Submit(q.tag, q.cql);
    if (!ost.ok()) {
      fail(StrFormat("oracle rejects [%s] \"%s\": %s", q.tag.c_str(),
                     q.cql.c_str(), ost.ToString().c_str()));
      return;
    }
    const std::string tag = q.tag;
    Result<std::string> id = system.SubmitQuery(
        q.cql, q.user, [delivered, tag](const std::string&, const Tuple& t) {
          (*delivered)[tag].push_back(t);
        });
    if (!id.ok()) {
      fail(StrFormat("SubmitQuery [%s] \"%s\": %s", q.tag.c_str(),
                     q.cql.c_str(), id.status().ToString().c_str()));
      return;
    }
    tag_to_id[tag] = *id;
    id_to_tag[*id] = tag;
    ++report.queries_submitted;
    note_residual_profiles();
  };

  // Runs the simulator dry (synchronous mode delivers inline; no-op).
  auto drain = [&] {
    if (sim) sim->Run();
  };
  // Advances virtual time to `at` unless a drain already moved past it.
  auto advance = [&](Timestamp at) {
    if (sim && at > sim->now()) sim->RunUntil(at);
  };
  // Control-plane mutations happen only at quiescent points: in-flight
  // datagrams carry routing decisions made under the old subscription
  // state, so churning mid-flight would make the oracle's notion of "what
  // this query should see" ill-defined. Link failures, by contrast, are
  // injected at arbitrary points — that is the coverage this harness is
  // for.
  auto quiescent = [&]() -> bool {
    drain();
    return !system.network().HasFailedLinks() &&
           system.network().buffered_datagrams() == 0;
  };

  for (const auto& q : s.initial_queries) submit(q);
  drain();

  for (const DstEvent& e : s.events) {
    switch (e.type) {
      case DstEventType::kInjectTuple: {
        advance(e.at);
        const DstSourceSpec& src = s.sources[e.source_index %
                                             s.sources.size()];
        std::vector<Value> values;
        values.emplace_back(static_cast<int64_t>(e.station));
        for (double m : e.measurements) values.emplace_back(m);
        values.emplace_back(static_cast<int64_t>(e.event_time));
        Tuple tuple(src.schema, std::move(values), e.event_time);
        Status st = system.PublishSourceTuple(src.stream, tuple);
        if (!st.ok()) {
          fail(StrFormat("PublishSourceTuple(%s): %s", src.stream.c_str(),
                         st.ToString().c_str()));
          break;
        }
        oracle.Inject(src.stream, tuple);
        ++injected_per_stream[src.stream];
        ++report.tuples_injected;
        ++report.events_executed;
        break;
      }
      case DstEventType::kFailLink: {
        advance(e.at);
        const std::vector<Edge>& edges = system.network().tree().edges();
        const Edge& victim =
            edges[e.edge_ordinal % static_cast<uint64_t>(edges.size())];
        const auto key = DisseminationTree::EdgeKey(victim.u, victim.v);
        if (system.network().failed_links().count(key) > 0 ||
            !RepairableAfter(s, system.network(), victim.u, victim.v)) {
          ++report.events_skipped;
          break;
        }
        Status st = system.FailLink(victim.u, victim.v);
        if (!st.ok()) {
          fail(StrFormat("FailLink(%d,%d): %s", victim.u, victim.v,
                         st.ToString().c_str()));
          break;
        }
        ++report.events_executed;
        break;
      }
      case DstEventType::kRepairLinks: {
        drain();
        if (!system.network().HasFailedLinks()) {
          ++report.events_skipped;
          break;
        }
        Status st = system.RepairLinks();
        if (!st.ok()) {
          fail(StrFormat("RepairLinks: %s", st.ToString().c_str()));
          break;
        }
        drain();
        ++report.events_executed;
        break;
      }
      case DstEventType::kRebuildTree: {
        // Rebuilding is legal mid-failure (it clears failed links and
        // flushes buffers onto the new tree), but we still drain first so
        // in-flight hops finish on the tree they were routed for.
        drain();
        Rng tree_rng(e.tree_seed);
        Result<std::vector<Edge>> edges =
            RandomSpanningTree(s.overlay, tree_rng);
        if (!edges.ok()) {
          ++report.events_skipped;
          break;
        }
        Result<DisseminationTree> tree =
            DisseminationTree::FromEdges(s.num_nodes, *edges);
        if (!tree.ok()) {
          ++report.events_skipped;
          break;
        }
        Status st = system.network().RebuildTree(std::move(*tree));
        if (!st.ok()) {
          fail(StrFormat("RebuildTree: %s", st.ToString().c_str()));
          break;
        }
        drain();
        ++report.events_executed;
        break;
      }
      case DstEventType::kSubmitQuery: {
        if (!quiescent()) {
          ++report.events_skipped;
          break;
        }
        submit(e.query);
        drain();
        ++report.events_executed;
        break;
      }
      case DstEventType::kRemoveQuery: {
        if (!quiescent()) {
          ++report.events_skipped;
          break;
        }
        auto it = tag_to_id.find(e.target_tag);
        if (it == tag_to_id.end()) {
          ++report.events_skipped;
          break;
        }
        Status st = system.RemoveQuery(it->second);
        if (!st.ok()) {
          fail(StrFormat("RemoveQuery [%s]: %s", e.target_tag.c_str(),
                         st.ToString().c_str()));
          break;
        }
        COSMOS_CHECK(oracle.Remove(e.target_tag).ok());
        tag_to_id.erase(it);
        drain();
        ++report.events_executed;
        break;
      }
    }
    if (!report.ok) break;  // infrastructure errors invalidate the run
  }

  // Epilogue: let everything land, repairing any outstanding failure so
  // buffered datagrams get their chance to be delivered.
  drain();
  if (report.ok && system.network().HasFailedLinks()) {
    Status st = system.RepairLinks();
    if (!st.ok()) {
      fail(StrFormat("final RepairLinks: %s", st.ToString().c_str()));
    }
    drain();
  }

  report.recovered_datagrams = system.network().recovered_datagrams();
  report.lost_datagrams = system.network().lost_datagrams();

  if (!report.ok) {
    export_artifacts();
    return report;
  }

  // ---- check 1: delivered multiset == oracle multiset, per query;
  // ---- check 2: delivered tuples carry exactly the query's output schema.
  for (const std::string& tag : oracle.Tags()) {
    const std::vector<Tuple>& expected = oracle.ResultsFor(tag);
    const std::vector<Tuple>& actual = (*delivered)[tag];
    report.results_expected += expected.size();
    report.results_delivered += actual.size();

    Multiset want = ToMultiset(expected);
    Multiset got = ToMultiset(actual);
    std::string missing = DescribeExcess(want, got, 3);
    std::string unexpected = DescribeExcess(got, want, 3);
    if (!missing.empty()) {
      fail(StrFormat("[%s] missing%s", tag.c_str(), missing.c_str()));
    }
    if (!unexpected.empty()) {
      fail(StrFormat("[%s] unexpected%s", tag.c_str(), unexpected.c_str()));
    }

    const AnalyzedQuery* query = oracle.Query(tag);
    COSMOS_CHECK(query != nullptr);
    const Schema& out_schema = *query->output_schema();
    for (const Tuple& t : actual) {
      const Schema& got_schema = *t.schema();
      bool exact = got_schema.num_attributes() == out_schema.num_attributes();
      for (size_t i = 0; exact && i < out_schema.num_attributes(); ++i) {
        exact = got_schema.attribute(i).name == out_schema.attribute(i).name;
      }
      if (!exact) {
        fail(StrFormat("[%s] projection mismatch: delivered %s, want %s",
                       tag.c_str(), got_schema.ToString().c_str(),
                       out_schema.ToString().c_str()));
        break;
      }
    }
  }

  // ---- check 3: every live member's oracle results are contained in its
  // final group representative's reference results, re-shaped through the
  // member's own presentation path (paper Theorems 1-2).
  const auto& log = system.injection_log();
  for (NodeId p : s.processors) {
    Processor* proc = system.processor(p);
    if (proc == nullptr) continue;
    report.final_groups += proc->grouping().num_groups();
    for (const auto& [gid, group] : proc->grouping().groups()) {
      std::vector<Tuple> rep_results =
          GroundTruthOracle::Evaluate(group.representative, log);
      for (size_t i = 0; i < group.member_ids.size(); ++i) {
        auto tag_it = id_to_tag.find(group.member_ids[i]);
        COSMOS_CHECK(tag_it != id_to_tag.end());
        const std::string& tag = tag_it->second;
        const AnalyzedQuery& member = group.members[i];

        std::vector<Tuple> presented;
        DeliveryCallback present = MakePresentationCallback(
            member, group.representative,
            [&presented](const std::string&, const Tuple& t) {
              presented.push_back(t);
            });
        for (const Tuple& t : rep_results) {
          present(group.ResultStreamName(), t);
        }
        Multiset member_truth = ToMultiset(oracle.ResultsFor(tag));
        Multiset rep_view = ToMultiset(presented);
        if (!ContainedIn(member_truth, rep_view)) {
          fail(StrFormat(
              "[%s] containment violated in group %llu at processor %d: "
              "member results not within the representative's%s",
              tag.c_str(), static_cast<unsigned long long>(gid), p,
              DescribeExcess(member_truth, rep_view, 3).c_str()));
        }
      }
    }
  }

  // ---- check 4: data-layer accounting.
  if (report.lost_datagrams != 0) {
    fail(StrFormat("%llu datagrams lost (buffering should cover failures)",
                   static_cast<unsigned long long>(report.lost_datagrams)));
  }
  if (system.network().buffered_datagrams() != 0) {
    fail(StrFormat("%llu datagrams still buffered after final repair",
                   static_cast<unsigned long long>(
                       system.network().buffered_datagrams())));
  }
  if (sim && sim->HasPendingEvents()) {
    fail("simulator still has pending events after final drain");
  }

  // ---- check 5: telemetry conservation. The network's ledger must
  // balance against the harness's injection counts, and its distinct
  // events against each other.
  for (const auto& [stream, injected] : injected_per_stream) {
    const Counter* published = metrics.FindCounter(
        MetricsRegistry::LabeledName("cbn.published", "stream", stream));
    uint64_t counted = published == nullptr ? 0 : published->value();
    if (counted != injected) {
      fail(StrFormat(
          "telemetry: cbn.published{stream=%s} = %llu, but the harness "
          "injected %llu tuples",
          stream.c_str(), static_cast<unsigned long long>(counted),
          static_cast<unsigned long long>(injected)));
    }
  }
  uint64_t buffered = SumFamily(metrics, "cbn.buffered");
  uint64_t flushed = SumFamily(metrics, "cbn.flushed");
  if (buffered != flushed) {
    fail(StrFormat(
        "telemetry: %llu datagrams buffered but only %llu flushed back",
        static_cast<unsigned long long>(buffered),
        static_cast<unsigned long long>(flushed)));
  }
  // Residual fallbacks may only occur when some installed profile actually
  // carried a residual-bearing filter.
  const Counter* fallbacks = metrics.FindCounter("cbn.matcher_fallbacks");
  uint64_t fallback_count = fallbacks == nullptr ? 0 : fallbacks->value();
  if (fallback_count > 0 && !saw_residual_profile) {
    fail(StrFormat(
        "telemetry: cbn.matcher_fallbacks = %llu but no residual-bearing "
        "profile was ever installed",
        static_cast<unsigned long long>(fallback_count)));
  }

  export_artifacts();
  return report;
}

namespace {

DstScenario WithoutEvents(const DstScenario& s, size_t begin, size_t count) {
  DstScenario out = s;
  out.events.erase(out.events.begin() + static_cast<ptrdiff_t>(begin),
                   out.events.begin() + static_cast<ptrdiff_t>(begin + count));
  return out;
}

DstScenario WithoutInitialQuery(const DstScenario& s, size_t index) {
  DstScenario out = s;
  out.initial_queries.erase(out.initial_queries.begin() +
                            static_cast<ptrdiff_t>(index));
  return out;
}

}  // namespace

DstScenario ShrinkScenario(
    const DstScenario& scenario,
    const std::function<bool(const DstScenario&)>& still_failing,
    size_t budget) {
  DstScenario current = scenario;
  size_t runs = 0;

  // Phase 1: drop event chunks, halving the chunk size down to 1. Removal
  // keeps the cursor in place (the next chunk slid into it); survival
  // advances past the chunk.
  size_t chunk = std::max<size_t>(1, current.events.size() / 2);
  while (runs < budget) {
    bool removed_any = false;
    for (size_t start = 0; start < current.events.size() && runs < budget;) {
      size_t len = std::min(chunk, current.events.size() - start);
      DstScenario candidate = WithoutEvents(current, start, len);
      ++runs;
      if (still_failing(candidate)) {
        current = std::move(candidate);
        removed_any = true;
      } else {
        start += len;
      }
    }
    if (chunk > 1) {
      chunk = std::max<size_t>(1, chunk / 2);
    } else if (!removed_any) {
      break;
    }
  }

  // Phase 2: drop initial queries one at a time (removals of churn tags
  // whose submit disappeared skip gracefully, so order does not matter).
  for (size_t i = current.initial_queries.size(); i > 0 && runs < budget;) {
    --i;
    DstScenario candidate = WithoutInitialQuery(current, i);
    ++runs;
    if (still_failing(candidate)) current = std::move(candidate);
  }
  return current;
}

DstScenario ShrinkScenario(const DstScenario& scenario, size_t budget) {
  return ShrinkScenario(
      scenario,
      [](const DstScenario& candidate) {
        return !RunScenario(candidate).ok;
      },
      budget);
}

}  // namespace cosmos
