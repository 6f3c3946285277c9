#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>

#include "cbn/network.h"
#include "common/string_util.h"
#include "core/grouping.h"
#include "query/analyzer.h"
#include "sim/simulator.h"
#include "spe/wrapper.h"

namespace cosmos::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr uint64_t kMaxSimEvents = 2000000;

}  // namespace

LayerTimes ReplayLayers(const LayerInputs& in, SpanRecorder& spans) {
  LayerTimes out;
  const Inputs& inputs = *in.inputs;

  // query: ParseAndAnalyze of every submitted CQL, in submission order.
  std::vector<std::unique_ptr<AnalyzedQuery>> analyzed(in.ops.size());
  out.parse_us.assign(in.ops.size(), kNaN);
  {
    auto phase = spans.Begin("query", "parse_replay");
    for (size_t i = 0; i < in.ops.size(); ++i) {
      const OpRecord& op = in.ops[i];
      if (op.remove) continue;
      auto t0 = Clock::now();
      Result<AnalyzedQuery> q = ParseAndAnalyze(
          inputs.queries[op.query].cql, *in.catalog, "result_" + op.id);
      out.parse_us[i] = MicrosSince(t0);
      if (q.ok()) analyzed[i] = std::make_unique<AnalyzedQuery>(*q);
    }
  }

  // core: one standalone GroupingEngine per processor, named as the
  // processor names its own, replaying the run's add/remove order.
  out.group_us.assign(in.ops.size(), kNaN);
  {
    auto phase = spans.Begin("core", "group_replay");
    std::map<NodeId, std::unique_ptr<GroupingEngine>> engines;
    std::map<std::string, NodeId> live;
    for (size_t i = 0; i < in.ops.size(); ++i) {
      const OpRecord& op = in.ops[i];
      auto& engine = engines[op.home];
      if (!engine) {
        engine = std::make_unique<GroupingEngine>(
            in.catalog, GroupingOptions{}, RateEstimatorOptions{},
            StrFormat("p%d_", op.home));
      }
      auto t0 = Clock::now();
      if (op.remove) {
        (void)engine->RemoveQuery(op.id);
        live.erase(op.id);
      } else if (analyzed[i]) {
        (void)engine->AddQuery(op.id, *analyzed[i]);
        live[op.id] = op.home;
      }
      out.group_us[i] = MicrosSince(t0);
    }
    for (const auto& [id, home] : live) {
      auto t0 = Clock::now();
      (void)engines.at(home)->RemoveQuery(id);
      out.teardown_us.push_back(MicrosSince(t0));
    }
  }

  // cbn control plane: the final subscriptions re-subscribed into a fresh
  // synchronous network on the same tree.
  ContentBasedNetwork network(*in.tree);
  {
    auto phase = spans.Begin("cbn", "subscribe_replay");
    for (const auto& [node, profile] : in.subscriptions) {
      auto t0 = Clock::now();
      network.Subscribe(node, profile,
                        [](const std::string&, const Tuple&) {});
      out.subscribe_us.push_back(MicrosSince(t0));
    }
  }

  // spe: every installed representative in a standalone wrapper per
  // processor, fed the source tuples of the streams it reads. The result
  // datagrams it emits feed the data-plane replay below.
  std::vector<std::pair<NodeId, Datagram>> results;
  {
    std::map<NodeId, std::unique_ptr<NativeSpeWrapper>> wrappers;
    std::map<std::string, std::vector<NativeSpeWrapper*>> readers;
    for (size_t i = 0; i < in.representatives.size(); ++i) {
      const Representative& rep = in.representatives[i];
      auto& wrapper = wrappers[rep.node];
      if (!wrapper) wrapper = std::make_unique<NativeSpeWrapper>(in.catalog);
      NodeId node = rep.node;
      std::string stream = rep.result_stream;
      (void)wrapper->InstallQuery(
          StrFormat("grp_%zu", i), rep.cql, rep.result_stream,
          [&results, node, stream](const std::string&, const Tuple& t) {
            results.push_back({node, Datagram{stream, t}});
          });
      for (const std::string& s : rep.source_streams) {
        auto& list = readers[s];
        if (std::find(list.begin(), list.end(), wrapper.get()) == list.end()) {
          list.push_back(wrapper.get());
        }
      }
    }
    auto phase = spans.Begin("spe", "deliver_replay");
    auto t0 = Clock::now();
    for (const Tuple& t : inputs.tuples) {
      auto it = readers.find(t.schema()->stream_name());
      if (it == readers.end()) continue;
      for (NativeSpeWrapper* w : it->second) {
        w->DeliverTuple(t.schema()->stream_name(), t);
      }
    }
    out.spe_seconds = SecondsSince(t0);
  }

  // cbn data plane: the same network carries the source tuples from their
  // publishers and the replayed result datagrams from their processors.
  {
    std::map<std::string, NodeId> publisher;
    for (size_t k = 0; k < inputs.schemas.size(); ++k) {
      publisher[inputs.schemas[k]->stream_name()] = inputs.publishers[k];
    }
    auto phase = spans.Begin("cbn", "publish_replay");
    auto t0 = Clock::now();
    for (const Tuple& t : inputs.tuples) {
      const std::string& stream = t.schema()->stream_name();
      network.Publish(publisher.at(stream), Datagram{stream, t});
    }
    for (const auto& [node, d] : results) network.Publish(node, d);
    out.publish_seconds = SecondsSince(t0);
  }

  // sim: no-op events with the run's delay mix (the tree's link delays) at
  // the run's observed queue depth.
  {
    std::vector<Duration> delays;
    for (const Edge& e : in.tree->edges()) {
      delays.push_back(static_cast<Duration>(e.weight * kMillisecond));
    }
    const uint64_t total = std::min(in.sim_events, kMaxSimEvents);
    if (total > 0 && !delays.empty()) {
      Simulator sim;
      uint64_t fired = 0;
      size_t next_delay = 0;
      std::function<void()> hop = [&] {
        if (++fired >= total) return;
        sim.Schedule(delays[next_delay++ % delays.size()], hop);
      };
      const size_t chains = std::max<size_t>(1, in.queue_depth_max);
      for (size_t c = 0; c < chains; ++c) {
        sim.Schedule(delays[c % delays.size()], hop);
      }
      auto phase = spans.Begin("sim", "event_replay");
      auto t0 = Clock::now();
      size_t ran = sim.Run();
      out.sim_event_ns = SecondsSince(t0) * 1e9 / static_cast<double>(ran);
    }
  }
  return out;
}

}  // namespace cosmos::e2e
