#!/usr/bin/env python3
"""Validates BENCH_routing.json, the forwarding-benchmark artifact.

The file is google-benchmark JSON produced by:

    bench_micro \
        --benchmark_filter='BM_RoutingForward|BM_ForwardWith|BM_CounterHotPath|BM_Match' \
        --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
        --benchmark_out=BENCH_routing.json --benchmark_out_format=json

Every gate compares `_median` aggregate rows, so the file must come from a
run with repetitions; one short run per side passes or fails on host noise.
Each compared side's coefficient of variation over its repetitions is
printed beside the verdict. Four gates, all measured within the same run:

  1. Index speedup — the run covers table sizes {10^2, 10^3, 10^4} for both
     the stream-partitioned index (BM_RoutingForwardIndexed) and the
     pre-index linear reference (BM_RoutingForwardLinear), each reporting a
     datagrams_per_sec counter, and the indexed implementation at 10^4
     entries is at least MIN_SPEEDUP x the linear one. BM_RoutingForwardIndexed
     runs whatever Router defaults to (now the compiled matcher), so a
     matcher regression that slowed real forwarding would trip this gate too.
  2. Match-engine speedup — within one (link, stream) bucket, the compiled
     counting matcher (BM_MatchCompiled) is at least MIN_MATCH_SPEEDUP x
     the interpreted per-profile walk (BM_MatchInterpreted) at 10^4
     profiles, sizes {10^2, 10^3, 10^4} all present.
  3. Telemetry overhead — publishing through an instrumented CBN
     (BM_ForwardWithTelemetry) keeps at least MIN_TELEMETRY_RATIO of the
     bare network's throughput (BM_ForwardWithoutTelemetry), so the
     instruments can stay on everywhere. The gate reads the median of the
     per-repetition ratios With/Without, paired by repetition_index:
     random interleaving runs both sides of a pair in the same round, so
     host drift between rounds cancels out of each ratio. A run whose
     ratios spread too widely to decide is refused as undecided: their
     interquartile range may be at most MAX_TELEMETRY_RATIO_SPREAD (10%)
     of their median.
  4. Allocations — a deterministic instrument, so it is checked on every
     repetition rather than on medians: on BM_RoutingForwardIndexed and
     BM_MatchCompiled at every size, allocs_per_datagram is no more than
     projecting_share, the share of decisions whose projection changed the
     attribute set. A forward that keeps every attribute shares its payload
     and allocates nothing; a projecting one allocates at most once.

Usage: tools/check_bench.py [BENCH_routing.json]
"""

import json
import statistics
import sys

MIN_SPEEDUP = 5.0
# Compiled matching must beat the interpreted walk >= 3x at 10^4 profiles.
MIN_MATCH_SPEEDUP = 3.0
# Instrumented forwarding must retain >= 95% of bare throughput.
MIN_TELEMETRY_RATIO = 0.95
# The paired telemetry ratios' interquartile range, over their median, above
# which a run cannot decide the telemetry gate.
MAX_TELEMETRY_RATIO_SPREAD = 0.10
SIZES = (100, 1000, 10000)
IMPLS = ("Indexed", "Linear")
MATCH_IMPLS = ("Compiled", "Interpreted")
ALLOC_BENCHES = tuple(f"BM_{b}/{n}" for b in ("RoutingForwardIndexed",
                                                 "MatchCompiled")
                      for n in SIZES)
TELEMETRY_BENCHES = (
    "BM_CounterHotPath",
    "BM_ForwardWithoutTelemetry",
    "BM_ForwardWithTelemetry",
)


def paired_ratios(rows, numerator, denominator):
    """datagrams_per_sec of `numerator` over `denominator`, one ratio per
    repetition_index that both report, in repetition order."""
    def by_rep(name):
        return {b["repetition_index"]: b["datagrams_per_sec"] for b in rows
                if b.get("run_type") == "iteration"
                and b.get("run_name") == name
                and "datagrams_per_sec" in b and "repetition_index" in b}
    num, den = by_rep(numerator), by_rep(denominator)
    return [num[i] / den[i] for i in sorted(num.keys() & den.keys())]


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_routing.json"
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        print(f"SKIP: {path} not found — run the forwarding benchmark first "
              "(see the module docstring); nothing to validate outside the "
              "bench job.")
        return 0
    rows = data.get("benchmarks", [])
    # Median aggregate rows, keyed by benchmark name (run_name).
    bench = {b["run_name"]: b for b in rows
             if b.get("run_type") == "aggregate"
             and b.get("aggregate_name") == "median"}

    def cv(name):
        """Coefficient of variation of datagrams_per_sec over repetitions."""
        reps = [b["datagrams_per_sec"] for b in rows
                if b.get("run_type") == "iteration"
                and b.get("run_name") == name and "datagrams_per_sec" in b]
        if len(reps) < 2:
            return float("nan")
        return statistics.stdev(reps) / statistics.mean(reps)

    missing = []
    for impl in IMPLS:
        for n in SIZES:
            name = f"BM_RoutingForward{impl}/{n}"
            if name not in bench:
                missing.append(f"{name}_median")
            elif "datagrams_per_sec" not in bench[name]:
                missing.append(f"{name}_median:datagrams_per_sec")
    for impl in MATCH_IMPLS:
        for n in SIZES:
            name = f"BM_Match{impl}/{n}"
            if name not in bench:
                missing.append(f"{name}_median")
            elif "datagrams_per_sec" not in bench[name]:
                missing.append(f"{name}_median:datagrams_per_sec")
    for name in TELEMETRY_BENCHES:
        if name not in bench:
            missing.append(f"{name}_median")
    for name in TELEMETRY_BENCHES[1:]:
        if name in bench and "datagrams_per_sec" not in bench[name]:
            missing.append(f"{name}_median:datagrams_per_sec")
    for name in ALLOC_BENCHES:
        if name in bench and not {"allocs_per_datagram",
                                  "projecting_share"} <= bench[name].keys():
            missing.append(f"{name}_median:allocs_per_datagram/"
                           "projecting_share")
    if missing:
        print(f"{path} incomplete: missing {', '.join(missing)} (run with "
              "--benchmark_repetitions=5)", file=sys.stderr)
        return 1

    for n in SIZES:
        indexed = bench[f"BM_RoutingForwardIndexed/{n}"]["datagrams_per_sec"]
        linear = bench[f"BM_RoutingForwardLinear/{n}"]["datagrams_per_sec"]
        print(f"table size {n:>6}: indexed {indexed:>14,.0f} dg/s | "
              f"linear {linear:>14,.0f} dg/s | {indexed / linear:5.1f}x")

    indexed = bench["BM_RoutingForwardIndexed/10000"]["datagrams_per_sec"]
    linear = bench["BM_RoutingForwardLinear/10000"]["datagrams_per_sec"]
    speedup = indexed / linear
    print(f"CV at 10^4: indexed "
          f"{cv('BM_RoutingForwardIndexed/10000'):.1%} | linear "
          f"{cv('BM_RoutingForwardLinear/10000'):.1%}")
    ok = True
    if speedup < MIN_SPEEDUP:
        print(f"indexed forwarding at 10^4 entries is only {speedup:.1f}x "
              f"the linear baseline (need >= {MIN_SPEEDUP}x)",
              file=sys.stderr)
        ok = False
    else:
        print(f"OK: {speedup:.1f}x >= {MIN_SPEEDUP}x at 10^4 entries")

    for n in SIZES:
        compiled = bench[f"BM_MatchCompiled/{n}"]["datagrams_per_sec"]
        interp = bench[f"BM_MatchInterpreted/{n}"]["datagrams_per_sec"]
        print(f"bucket size {n:>6}: compiled {compiled:>14,.0f} dg/s | "
              f"interpreted {interp:>14,.0f} dg/s | "
              f"{compiled / interp:5.1f}x")

    compiled = bench["BM_MatchCompiled/10000"]["datagrams_per_sec"]
    interp = bench["BM_MatchInterpreted/10000"]["datagrams_per_sec"]
    match_speedup = compiled / interp
    print(f"CV at 10^4: compiled {cv('BM_MatchCompiled/10000'):.1%} | "
          f"interpreted {cv('BM_MatchInterpreted/10000'):.1%}")
    if match_speedup < MIN_MATCH_SPEEDUP:
        print(f"compiled matching at 10^4 profiles is only "
              f"{match_speedup:.1f}x the interpreted walk "
              f"(need >= {MIN_MATCH_SPEEDUP}x)", file=sys.stderr)
        ok = False
    else:
        print(f"OK: {match_speedup:.1f}x >= {MIN_MATCH_SPEEDUP}x at 10^4 "
              "profiles per bucket")

    bare = bench["BM_ForwardWithoutTelemetry"]["datagrams_per_sec"]
    instrumented = bench["BM_ForwardWithTelemetry"]["datagrams_per_sec"]
    print(f"telemetry medians: bare {bare:>14,.0f} dg/s | instrumented "
          f"{instrumented:>14,.0f} dg/s")
    print(f"CV: bare {cv('BM_ForwardWithoutTelemetry'):.1%} | instrumented "
          f"{cv('BM_ForwardWithTelemetry'):.1%}")
    ratios = paired_ratios(rows, "BM_ForwardWithTelemetry",
                           "BM_ForwardWithoutTelemetry")
    if len(ratios) < 3:
        print(f"telemetry gate needs >= 3 paired repetitions, found "
              f"{len(ratios)}: rerun bench_micro with "
              "--benchmark_repetitions=5 and without "
              "--benchmark_report_aggregates_only", file=sys.stderr)
        ok = False
    else:
        ratio = statistics.median(ratios)
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        spread = (q3 - q1) / ratio
        print(f"telemetry: per-repetition ratios "
              f"{' '.join(f'{r:.3f}' for r in ratios)} | median "
              f"{ratio:.1%} retained | IQR {spread:.1%} of the median")
        if spread > MAX_TELEMETRY_RATIO_SPREAD:
            print(f"telemetry gate undecided: the paired ratios' IQR is "
                  f"{spread:.1%} of their median (ceiling "
                  f"{MAX_TELEMETRY_RATIO_SPREAD:.0%}); the host is too "
                  "noisy to tell, rerun on a quieter one", file=sys.stderr)
            ok = False
        elif ratio < MIN_TELEMETRY_RATIO:
            print(f"telemetry overhead too high: instrumented forwarding "
                  f"keeps only {ratio:.1%} of bare throughput "
                  f"(need >= {MIN_TELEMETRY_RATIO:.0%})", file=sys.stderr)
            ok = False
        else:
            print(f"OK: telemetry keeps {ratio:.1%} >= "
                  f"{MIN_TELEMETRY_RATIO:.0%} of bare forwarding throughput")

    for name in ALLOC_BENCHES:
        reps = [b for b in rows if b.get("run_type") == "iteration"
                and b.get("run_name") == name]
        if not reps:
            print(f"{name} has no per-repetition rows: rerun bench_micro "
                  "without --benchmark_report_aggregates_only",
                  file=sys.stderr)
            ok = False
            continue
        over = [b for b in reps
                if b["allocs_per_datagram"] > b["projecting_share"]]
        worst = max(reps, key=lambda b: (b["allocs_per_datagram"]
                                         - b["projecting_share"]))
        print(f"{name:>30}: allocs/datagram "
              f"{worst['allocs_per_datagram']:.4f} | projecting share "
              f"{worst['projecting_share']:.4f} (worst of {len(reps)} reps)")
        if over:
            print(f"{name} allocates more than its projections need: "
                  f"{len(over)} of {len(reps)} repetitions have "
                  "allocs_per_datagram > projecting_share", file=sys.stderr)
            ok = False
    if ok:
        print("OK: no forward allocates beyond its projection")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
