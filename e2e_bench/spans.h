#ifndef COSMOS_E2E_BENCH_SPANS_H_
#define COSMOS_E2E_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cosmos::e2e {

// Wall-clock spans the benchmark records around its own calls into the
// library, kept in memory and written out when the run ends. Each span
// names the layer it calls into, the span that was open when it began
// (its parent) and the operation it belongs to: all spans of one tuple
// publication or one query submission share an operation id.
//
// A disabled recorder reads no clock and stores nothing, so untraced runs
// time the library alone. The library's Tracer is not used here: it keeps
// whole microseconds of the simulator's virtual clock and no parent links,
// while a tuple publication takes a few wall-clock microseconds.
class SpanRecorder {
 public:
  struct Span {
    int64_t parent = -1;  // index into spans(), -1 = root
    uint64_t op = 0;
    const char* layer = "";
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // Closes its span on destruction; a no-op when the recorder is off.
  class Scope {
   public:
    Scope() = default;
    Scope(SpanRecorder* recorder, size_t index)
        : recorder_(recorder), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }

    // Closes the span now; later calls and the destructor do nothing.
    void End();

   private:
    SpanRecorder* recorder_ = nullptr;
    size_t index_ = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one. `layer` and `name` must be
  // string literals.
  [[nodiscard]] Scope Begin(const char* layer, const char* name,
                            uint64_t op = 0);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer in seconds: each span's duration minus the part
  // its child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  // Chrome trace_event JSON: one complete slice per span (microseconds),
  // with the parent index and operation id as args.
  std::string ToChromeTraceJson() const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace cosmos::e2e

#endif  // COSMOS_E2E_BENCH_SPANS_H_
