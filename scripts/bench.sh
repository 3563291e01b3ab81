#!/bin/sh
# bench.sh — run the full benchmark suite and emit machine-readable
# results, so the repo's perf trajectory is recorded run over run.
#
# Usage:
#   sh scripts/bench.sh [count] [outdir]
#
#   count   how many BENCH_<n> result sets to produce (default 1;
#           benchstat wants >= 10 for confidence intervals)
#   outdir  where results land (default ./bench-out)
#
# Environment:
#   BENCHTIME   passed to -benchtime (default 1x: a smoke pass; use
#               e.g. 2s for real measurements)
#   BENCH       passed to -bench (default ".": everything)
#
# Each run n produces:
#   outdir/BENCH_<n>.txt   the classic `go test -bench` output — feed
#                          any set of these straight to benchstat:
#                            benchstat old/BENCH_*.txt new/BENCH_*.txt
#   outdir/BENCH_<n>.json  the same text wrapped in a JSON envelope
#                          (goos/goarch/commit/date + the verbatim
#                          benchstat-compatible text in .benchstat_text)
#
# To compare two runs — and gate on regressions of the forward/deliver
# benchmarks, as CI does against the previous run's artifact — use:
#   sh scripts/bench_compare.sh old/BENCH_1.txt new/BENCH_1.txt 20
set -eu

COUNT="${1:-1}"
OUT="${2:-bench-out}"
BENCHTIME="${BENCHTIME:-1x}"
BENCH="${BENCH:-.}"

mkdir -p "$OUT"

# json_escape: stdin -> a JSON string body (no surrounding quotes).
# Backslashes, quotes and tabs (go test output is tab-separated) are
# escaped; newlines become \n.
json_escape() {
    tab="$(printf '\t')"
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e "s/${tab}/\\\\t/g" |
        awk '{printf "%s\\n", $0}'
}

GOOS="$(go env GOOS)"
GOARCH="$(go env GOARCH)"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

n=1
while [ "$n" -le "$COUNT" ]; do
    txt="$OUT/BENCH_${n}.txt"
    json="$OUT/BENCH_${n}.json"
    echo "bench run $n/$COUNT (benchtime=$BENCHTIME) -> $txt, $json" >&2

    go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" ./... > "$txt"

    {
        printf '{\n'
        printf '  "run": %s,\n' "$n"
        printf '  "goos": "%s",\n' "$GOOS"
        printf '  "goarch": "%s",\n' "$GOARCH"
        printf '  "commit": "%s",\n' "$COMMIT"
        printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
        printf '  "benchtime": "%s",\n' "$BENCHTIME"
        printf '  "benchstat_text": "%s"\n' "$(json_escape < "$txt")"
        printf '}\n'
    } > "$json"

    n=$((n + 1))
done

# Forward-path tracing overhead: run the untraced and traced variants
# side by side with allocation accounting, so every bench run records
# whether hop tracing stays allocation-free on the hot path. The raw
# numbers land in FORWARD_PATH.txt next to the BENCH_<n> sets.
fp="$OUT/FORWARD_PATH.txt"
echo "forward-path traced-vs-untraced (benchtime=$BENCHTIME) -> $fp" >&2
{
    echo "# Forward-path hop-tracing overhead (ns/op, B/op, allocs/op)"
    echo "# BenchmarkForwardPath/raw = tracer constructed but disabled;"
    echo "# BenchmarkForwardPathTraced = tracer enabled, all three hops observed."
    go test -run '^$' -bench 'BenchmarkForwardPath' -benchmem -benchtime "$BENCHTIME" .
} > "$fp"

# Matching-engine scaling curve: the predicate-indexed engine across
# population sizes, against the naive table at the smallest, with
# p50/p99 per-event latency extras. This is the headline number for
# broker matching; the raw curve lands in INDEXED_MATCH.txt next to the
# BENCH_<n> sets.
im="$OUT/INDEXED_MATCH.txt"
echo "indexed-match scaling curve (benchtime=$BENCHTIME) -> $im" >&2
{
    echo "# Match cost per event (ns/op, plus p50-ns/p99-ns sampled per event)"
    echo "# naive = Figure 6 table (every filter per event); indexed = predicate-indexed"
    echo "# engine (sorted threshold cores, per-length prefix/suffix postings,"
    echo "# paired access-threshold groups); indexed-std = the same population"
    echo "# in the Section 4.4 standard form (wildcards verified at hit time),"
    echo "# matched against events carrying all four advertised attributes."
    go test -run '^$' -bench 'BenchmarkIndexedMatch' -benchmem -benchtime "$BENCHTIME" ./internal/index/
} > "$im"

# Partition fan-in decision: the per-publish cost sharding adds ahead
# of the forward path (hash key fields, map to a partition, look up the
# owning replica). Gate headline is allocs/op = 0; the raw numbers land
# in PARTITION_FANIN.txt next to the BENCH_<n> sets.
pf="$OUT/PARTITION_FANIN.txt"
echo "partition fan-in decision (benchtime=$BENCHTIME) -> $pf" >&2
{
    echo "# Publisher-side partition decision (ns/op, B/op, allocs/op)"
    echo "# KeyOf -> PartitionOf -> Owner over pre-encoded wire events,"
    echo "# 64 partitions rendezvous-hashed across 8 replicas."
    go test -run '^$' -bench 'BenchmarkPartitionedFanIn' -benchmem -benchtime "$BENCHTIME" .
} > "$pf"

# Subscription absorb at growing per-subscriber populations: the
# covering index should keep ns/subscribe and checks/subscribe flat from
# 1 to 2000 filters under one ID. Recorded, not gated; the raw numbers
# land in CORE_SUBSCRIBE.txt next to the BENCH_<n> sets.
cs="$OUT/CORE_SUBSCRIBE.txt"
echo "peering core subscribe scaling (benchtime=$BENCHTIME) -> $cs" >&2
{
    echo "# peering.Core.Subscribe cost while one ID fills to filters-per-id alarm"
    echo "# filters (absorb against the ID's own filters + pruning on one link);"
    echo "# ns/subscribe and checks/subscribe (exact covering checks) per call."
    go test -run '^$' -bench 'BenchmarkCoreSubscribe' -benchmem -benchtime "$BENCHTIME" ./internal/peering/
} > "$cs"

echo "wrote $COUNT result set(s) to $OUT/" >&2
