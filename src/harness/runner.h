#ifndef COSMOS_HARNESS_RUNNER_H_
#define COSMOS_HARNESS_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "harness/scenario.h"

namespace cosmos {

struct DstRunOptions {
  // Record the run with a Tracer: the whole run as Chrome trace_event JSON
  // into DstReport::chrome_trace_json (load it in chrome://tracing or
  // Perfetto), and its last `trace_limit` CBN events, one formatted line
  // each, into DstReport::trace. Costly — meant for re-runs of failing
  // seeds.
  bool capture_trace = false;
  size_t trace_limit = 200;
  // Export the final telemetry snapshot as JSON into
  // DstReport::metrics_json.
  bool capture_metrics_json = false;
};

// Outcome of one scenario execution.
struct DstReport {
  bool ok = true;
  // Human-readable oracle-check violations (empty when ok).
  std::vector<std::string> failures;

  // Run statistics.
  size_t events_executed = 0;
  size_t events_skipped = 0;  // guard-skipped (unrepairable failure, ...)
  size_t tuples_injected = 0;
  size_t queries_submitted = 0;
  size_t results_delivered = 0;
  size_t results_expected = 0;
  uint64_t recovered_datagrams = 0;
  uint64_t lost_datagrams = 0;
  size_t final_groups = 0;

  // Only with the corresponding DstRunOptions capture flag.
  std::vector<std::string> trace;
  std::string chrome_trace_json;
  std::string metrics_json;

  std::string Summary() const;
};

// Executes the scenario end-to-end against a fresh CosmosSystem and checks
// every user's delivered result stream against the ground-truth oracle:
//   1. completeness + no-duplicates + value exactness: the delivered
//      multiset equals the oracle's, per query;
//   2. projection exactness: delivered tuples carry exactly the query's
//      output schema (names, order);
//   3. group containment (paper Theorems 1-2): every member's oracle
//      results are contained in its final group representative's reference
//      results, re-presented through the member's own presentation path;
//   4. data-layer accounting: nothing lost, nothing left buffered, no
//      pending simulator events;
//   5. telemetry conservation: the network's ledger (the run's isolated
//      MetricsRegistry) must agree with what lies outside it or with its
//      own distinct events — per-stream published counters match the
//      harness's injection counts, every buffered datagram is flushed, and
//      cbn.matcher_fallbacks only increments when a residual-bearing
//      profile was installed;
//   6. stream order: each processor node receives each source stream in
//      the event-time order it was injected in (checked as it happens; the
//      first reordering ends the run).
// Deterministic: the same scenario always yields the same report.
DstReport RunScenario(const DstScenario& scenario,
                      const DstRunOptions& options = {});

// Greedy event-drop shrinking (ddmin-style): repeatedly re-runs the
// scenario with chunks of events removed — then single events, then
// initial queries — keeping every reduction on which `still_failing`
// holds. `budget` caps the number of re-runs. Returns the smallest
// still-failing scenario found.
DstScenario ShrinkScenario(
    const DstScenario& scenario,
    const std::function<bool(const DstScenario&)>& still_failing,
    size_t budget = 400);

// Convenience: shrink on "RunScenario reports any failure".
DstScenario ShrinkScenario(const DstScenario& scenario, size_t budget = 400);

}  // namespace cosmos

#endif  // COSMOS_HARNESS_RUNNER_H_
