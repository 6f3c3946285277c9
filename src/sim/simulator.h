#ifndef COSMOS_SIM_SIMULATOR_H_
#define COSMOS_SIM_SIMULATOR_H_

#include "common/status.h"
#include "sim/event_queue.h"
#include "telemetry/registry.h"

namespace cosmos {

// Discrete-event simulator: a virtual clock driven by the event queue.
// All COSMOS network experiments run under one Simulator, which makes every
// benchmark fully deterministic and independent of wall-clock speed.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Timestamp now() const { return now_; }

  // Schedules `cb` to run `delay` after now (delay >= 0).
  void Schedule(Duration delay, EventQueue::Callback cb);

  // Schedules `cb` at absolute virtual time `when` (must be >= now).
  void ScheduleAt(Timestamp when, EventQueue::Callback cb);

  // Runs until the event queue drains or Stop() is called. Returns the
  // number of events processed.
  size_t Run();

  // Runs events with time <= `until` (inclusive); the clock ends at
  // min(until, last event time) or `until` if events remain.
  size_t RunUntil(Timestamp until);

  // Processes exactly one event if present; returns whether one fired.
  bool Step();

  // Stops Run() after the current event returns.
  void Stop() { stopped_ = true; }

  bool HasPendingEvents() const { return !queue_.Empty(); }
  Timestamp NextEventTime() const { return queue_.NextTime(); }

  // Telemetry tap: every executed event increments sim.events and the
  // queue-depth gauge tracks the pending count. Null (default) disables.
  void SetTelemetry(MetricsRegistry* registry);

 private:
  EventQueue queue_;
  Timestamp now_ = 0;
  bool stopped_ = false;
  Counter* events_counter_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* now_gauge_ = nullptr;
};

}  // namespace cosmos

#endif  // COSMOS_SIM_SIMULATOR_H_
