package main

import (
	"math"
	"slices"
	"time"
)

// clockBase anchors the harness clock; now reads it through the
// monotonic clock, so due times and handler times compare exactly.
var clockBase = time.Now()

// now returns monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(clockBase)) }

// percentile returns the p-quantile (0..1) of vs by the nearest-rank
// rule, leaving vs as it was. It returns 0 for an empty slice.
func percentile[T int32 | int64 | float64](vs []T, p float64) T {
	if len(vs) == 0 {
		return 0
	}
	vs = slices.Clone(vs)
	slices.Sort(vs)
	return sortedPercentile(vs, p)
}

func sortedPercentile[T int32 | int64 | float64](vs []T, p float64) T {
	k := int(math.Ceil(p*float64(len(vs)))) - 1
	return vs[min(max(k, 0), len(vs)-1)]
}

func median[T int32 | int64 | float64](vs []T) T { return percentile(vs, 0.5) }

// sample is one delivery: when the handler saw it and how long after its
// due time that was.
type sample struct {
	at  int64 // handler time, ns on the harness clock
	lat int32 // handler time minus due time, ns (saturates at ~2.1 s)
}

// windowPercentiles cuts samples into n windows of width ns from start
// and returns the p-quantile of each window's latencies. Samples past
// the last edge (deliveries still in flight when the phase ended) belong
// to the last window; an empty window reports nothing.
func windowPercentiles(samples []sample, start, width int64, n int, p float64) []int32 {
	wins := make([][]int32, n)
	for _, s := range samples {
		w := min(max(int((s.at-start)/width), 0), n-1)
		wins[w] = append(wins[w], s.lat)
	}
	var out []int32
	for _, w := range wins {
		if len(w) > 0 {
			out = append(out, percentile(w, p))
		}
	}
	return out
}

func clampLat(d int64) int32 {
	return int32(min(max(d, math.MinInt32), math.MaxInt32))
}
