#!/bin/sh
# bench_compare.sh — compare two bench.sh result files and gate on
# regressions of the forward/deliver benchmarks.
#
# Usage:
#   sh scripts/bench_compare.sh OLD.txt NEW.txt [max_regression_pct]
#
#   OLD.txt / NEW.txt   `go test -bench` outputs as written by
#                       scripts/bench.sh (BENCH_<n>.txt)
#   max_regression_pct  hard-fail threshold on ns/op growth of the
#                       gated benchmarks (default 20)
#
# Environment:
#   GATED   space-separated benchmark-name prefixes to gate on
#           (default: the broker forward path and the end-to-end
#           deliver pipeline)
#
# A benchstat report is printed when benchstat is available (installed,
# or fetchable with `go run`); the hard gate itself needs only awk, so
# it works offline. A gated benchmark missing from either file skips
# its gate with a warning rather than failing — renaming a benchmark
# must not brick CI, but the rename should update GATED here.
set -eu

OLD="$1"
NEW="$2"
MAX="${3:-20}"
GATED="${GATED:-BenchmarkForwardPath/raw BenchmarkOverlayBatchThroughput BenchmarkIndexedMatch/indexed-subs=100000 BenchmarkIndexedMatch/indexed-std-subs=100000 BenchmarkPartitionedFanIn}"

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OLD" "$NEW" || true
elif go run golang.org/x/perf/cmd/benchstat@latest "$OLD" "$NEW" 2>/dev/null; then
    :
else
    echo "benchstat unavailable; direct ns/op comparison only" >&2
fi

# mean_nsop FILE PREFIX — average ns/op over result lines whose name
# starts with PREFIX (sub-benchmarks and -cpu suffixes included).
mean_nsop() {
    awk -v p="$2" '$1 ~ "^"p && $4 == "ns/op" { s += $3; n++ } END { if (n) printf "%.0f", s / n }' "$1"
}

fail=0
for b in $GATED; do
    o="$(mean_nsop "$OLD" "$b")"
    n="$(mean_nsop "$NEW" "$b")"
    if [ -z "$o" ] || [ -z "$n" ]; then
        echo "gate: $b missing from old or new results; skipped" >&2
        continue
    fi
    pct="$(awk -v o="$o" -v n="$n" 'BEGIN { printf "%.1f", (n - o) / o * 100 }')"
    echo "gate: $b  old ${o} ns/op  new ${n} ns/op  delta ${pct}%"
    if [ "$(awk -v p="$pct" -v m="$MAX" 'BEGIN { print (p > m) ? 1 : 0 }')" = 1 ]; then
        echo "gate: FAIL — $b regressed ${pct}% (limit ${MAX}%)" >&2
        fail=1
    fi
done
exit $fail
