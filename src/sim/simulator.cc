#include "sim/simulator.h"

#include "common/logging.h"

namespace cosmos {

void Simulator::Schedule(Duration delay, EventQueue::Callback cb) {
  COSMOS_CHECK_GE(delay, 0) << "negative schedule delay";
  queue_.Push(now_ + delay, std::move(cb));
}

void Simulator::ScheduleAt(Timestamp when, EventQueue::Callback cb) {
  COSMOS_CHECK_GE(when, now_) << "ScheduleAt into the past";
  queue_.Push(when, std::move(cb));
}

void Simulator::SetTelemetry(MetricsRegistry* registry) {
  if (registry == nullptr) {
    events_counter_ = nullptr;
    queue_depth_gauge_ = nullptr;
    now_gauge_ = nullptr;
    return;
  }
  events_counter_ = registry->GetCounter("sim.events");
  queue_depth_gauge_ = registry->GetGauge("sim.queue_depth");
  now_gauge_ = registry->GetGauge("sim.now_us");
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  auto [when, cb] = queue_.Pop();
  // Virtual time is monotone: the queue can never yield a past event.
  COSMOS_CHECK_GE(when, now_) << "event queue yielded a past event";
  now_ = when;
  if (events_counter_ != nullptr) {
    events_counter_->Increment();
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    now_gauge_->Set(static_cast<double>(now_));
  }
  cb();
  return true;
}

size_t Simulator::Run() {
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && Step()) ++n;
  return n;
}

size_t Simulator::RunUntil(Timestamp until) {
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && !queue_.Empty() && queue_.NextTime() <= until) {
    Step();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace cosmos
