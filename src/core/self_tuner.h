#ifndef COSMOS_CORE_SELF_TUNER_H_
#define COSMOS_CORE_SELF_TUNER_H_

#include <memory>

#include "core/system.h"

namespace cosmos {

struct SelfTunerOptions {
  // Virtual time between tuning rounds when Start()ed on a simulator.
  Duration period = 30 * kSecond;
  // Recalibrate the catalog only when the largest observed-vs-estimate
  // rate drift exceeds this relative threshold (0 = always).
  double recalibrate_drift = 0.10;
  OptimizerOptions optimizer;
};

// The closed self-tuning loop (the "S" in COSMOS, paper §3.2): instead of
// optimizing the overlay against RateEstimator guesses, each round measures
// what the data layer actually carried since the previous round and feeds
// that back into the control decisions. Every measurement is a rate read
// off the CBN ledger: a counter's growth since the round's baseline reading
// over the virtual time since that reading. One round:
//  (a) recalibrates the catalog's tuple rates when they drifted,
//  (b) builds Flows from the measured per-stream published bytes,
//  (c) re-runs the OverlayOptimizer and applies an improved tree,
//  (d) records its own actions as telemetry (selftune.* instruments and a
//      tracer slice).
//
// Drive it either manually with RunOnce(now) or periodically with Start()
// on a system attached to a Simulator (use RunUntil: a started tuner keeps
// rescheduling itself, so Run() would never drain the queue).
class SelfTuner {
 public:
  explicit SelfTuner(CosmosSystem* system, SelfTunerOptions options = {});
  SelfTuner(const SelfTuner&) = delete;
  SelfTuner& operator=(const SelfTuner&) = delete;

  struct RoundStats {
    size_t streams_recalibrated = 0;
    double max_drift = 0.0;
    size_t flows = 0;  // measured flows fed to the optimizer
    int swaps_applied = 0;
    double cost_before = 0.0;
    double cost_after = 0.0;
    bool tree_changed = false;
  };

  // Runs one round at virtual time `now`. The measurement window is the
  // time since the previous round (or since construction/Start()).
  Result<RoundStats> RunOnce(Timestamp now);

  // Schedules periodic RunOnce every `period` on the system's simulator.
  // No-op when the system runs synchronously (no simulator). After Stop()
  // (or destruction) a round still queued on the simulator does nothing.
  void Start();
  void Stop() { chain_.reset(); }
  bool running() const { return chain_ != nullptr; }

  uint64_t rounds_run() const { return rounds_; }
  const RoundStats& last_round() const { return last_; }

 private:
  void ScheduleNext();

  CosmosSystem* system_;
  SelfTunerOptions options_;
  // The ledger reading at the previous round (or construction/Start()):
  // the next round's rates are the growth since it.
  TrafficByStream baseline_;
  Timestamp baseline_at_ = 0;
  // The running chain's token. Each scheduled round holds it weakly and
  // does nothing once Stop(), a later Start() or the destructor dropped it.
  std::shared_ptr<SelfTuner*> chain_;
  uint64_t rounds_ = 0;
  RoundStats last_;
};

}  // namespace cosmos

#endif  // COSMOS_CORE_SELF_TUNER_H_
