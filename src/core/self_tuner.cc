#include "core/self_tuner.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace cosmos {
namespace {

// Largest relative drift |measured/estimate - 1| between the tuple rates in
// `traffic` (published over `seconds`) and the catalog's estimates. Streams
// the catalog does not know, or without a positive estimate, are skipped.
double MaxDrift(const Catalog& catalog, const TrafficByStream& traffic,
                double seconds) {
  double max_drift = 0.0;
  for (const auto& [stream, t] : traffic) {
    auto info = catalog.Lookup(stream);
    if (!info.ok() || info->rate_tuples_per_sec <= 0.0) continue;
    double measured = static_cast<double>(t.tuples) / seconds;
    max_drift = std::max(
        max_drift, std::abs(measured / info->rate_tuples_per_sec - 1.0));
  }
  return max_drift;
}

}  // namespace

SelfTuner::SelfTuner(CosmosSystem* system, SelfTunerOptions options)
    : system_(system), options_(std::move(options)) {
  COSMOS_CHECK(system_ != nullptr);
  COSMOS_CHECK_GT(options_.period, 0);
}

Result<SelfTuner::RoundStats> SelfTuner::RunOnce(Timestamp now) {
  RoundStats stats;
  MetricsRegistry* metrics = system_->options().metrics;
  Tracer* tracer = system_->options().tracer;
  Tracer::Span span;
  if (tracer != nullptr && tracer->enabled()) {
    span = tracer->BeginSpan("core", "selftune", /*tid=*/-1);
  }

  // One ledger reading serves the whole round.
  TrafficByStream reading = system_->network().published_by_stream();
  TrafficByStream traffic = TrafficSince(reading, baseline_);
  double seconds = static_cast<double>(now - baseline_at_) / kSecond;
  if (seconds <= 0.0) seconds = 1.0;
  baseline_ = std::move(reading);
  baseline_at_ = now;

  // (a) Recalibrate the catalog when measured rates drifted from it.
  stats.max_drift = MaxDrift(system_->catalog(), traffic, seconds);
  if (stats.max_drift >= options_.recalibrate_drift) {
    stats.streams_recalibrated = system_->CalibrateRates(traffic, seconds);
  }

  // (b) Flows from the bytes the data layer actually carried this window.
  std::vector<Flow> flows = system_->MeasuredFlows(traffic, seconds);
  stats.flows = flows.size();

  // (c) Re-optimize the overlay against measured reality; SelfTune applies
  // the improved tree through RebuildTree.
  if (!flows.empty() && system_->has_overlay()) {
    COSMOS_ASSIGN_OR_RETURN(OverlayOptimizer::Stats os,
                            system_->SelfTune(options_.optimizer, &flows));
    stats.swaps_applied = os.swaps_applied;
    stats.cost_before = os.initial_cost;
    stats.cost_after = os.final_cost;
    stats.tree_changed = os.swaps_applied > 0;
  }

  // (d) The tuner's own actions are telemetry too.
  ++rounds_;
  last_ = stats;
  if (metrics != nullptr) {
    metrics->GetCounter("selftune.runs")->Increment();
    metrics->GetCounter("selftune.swaps")
        ->Add(static_cast<uint64_t>(stats.swaps_applied));
    metrics->GetCounter("selftune.recalibrations")
        ->Add(static_cast<uint64_t>(stats.streams_recalibrated));
    if (stats.tree_changed) {
      metrics->GetCounter("selftune.tree_changes")->Increment();
    }
    metrics->GetGauge("selftune.max_drift")->Set(stats.max_drift);
    metrics->GetGauge("selftune.cost_before")->Set(stats.cost_before);
    metrics->GetGauge("selftune.cost_after")->Set(stats.cost_after);
  }
  if (span.active()) {
    span.AddArg("flows", std::to_string(stats.flows));
    span.AddArg("max_drift", std::to_string(stats.max_drift));
    span.AddArg("recalibrated",
                std::to_string(stats.streams_recalibrated));
    span.AddArg("swaps", std::to_string(stats.swaps_applied));
    span.AddArg("cost_before", std::to_string(stats.cost_before));
    span.AddArg("cost_after", std::to_string(stats.cost_after));
  }
  return stats;
}

void SelfTuner::Start() {
  Simulator* sim = system_->sim();
  if (sim == nullptr || running()) return;
  chain_ = std::make_shared<SelfTuner*>(this);
  baseline_ = system_->network().published_by_stream();
  baseline_at_ = sim->now();
  ScheduleNext();
}

void SelfTuner::ScheduleNext() {
  system_->sim()->Schedule(
      options_.period, [chain = std::weak_ptr<SelfTuner*>(chain_)]() {
        std::shared_ptr<SelfTuner*> live = chain.lock();
        if (live == nullptr) return;
        SelfTuner* self = *live;
        (void)self->RunOnce(self->system_->sim()->now());
        self->ScheduleNext();
      });
}

}  // namespace cosmos
