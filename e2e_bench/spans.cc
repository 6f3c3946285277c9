#include "spans.h"

#include <cstdio>

namespace cosmos::e2e {

void SpanRecorder::Scope::End() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end_ns = NowNs();
  recorder_->open_.pop_back();
  recorder_ = nullptr;
}

SpanRecorder::Scope SpanRecorder::Begin(const char* layer, const char* name,
                                        uint64_t op) {
  if (!enabled_) return Scope();
  Span s;
  s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  s.op = op;
  s.layer = layer;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

std::string SpanRecorder::ToChromeTraceJson() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"%s\","
                  "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"span\":%zu,\"parent\":%lld,\"op\":%llu}}",
                  i == 0 ? "" : ",\n", s.layer, s.name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace cosmos::e2e
