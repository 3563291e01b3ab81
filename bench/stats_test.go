package main

import (
	"testing"
	"time"

	"eventsys/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	var vs []int64
	for i := int64(100); i >= 1; i-- { // 1..100, unsorted
		vs = append(vs, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single value: got %d", got)
	}
	if got := percentile([]int64(nil), 0.5); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// TestWindowMedianIgnoresOneHiccup: five windows of 1000 samples whose
// p99 is 99 µs, one of which holds a 100-sample stall. The whole-run p99
// moves; the median of per-window p99s does not.
func TestWindowMedianIgnoresOneHiccup(t *testing.T) {
	const width = int64(time.Second)
	var samples []sample
	var whole []int32
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			lat := int32(i/10+1) * 1000 // 1..100 µs, ten of each
			if w == 2 && i >= 900 {
				lat = 50_000_000 // the hiccup
			}
			samples = append(samples, sample{at: int64(w)*width + int64(i)*1000, lat: lat})
			whole = append(whole, lat)
		}
	}
	// A delivery that was still in flight when the phase ended belongs
	// to the last window.
	samples = append(samples, sample{at: 5*width + 123, lat: 1000})

	p99s := windowPercentiles(samples, 0, width, 5, 0.99)
	if len(p99s) != 5 {
		t.Fatalf("got %d windows, want 5", len(p99s))
	}
	if got := median(p99s); got != 99_000 {
		t.Errorf("median of window p99s = %d ns, want 99000", got)
	}
	if p99s[2] != 50_000_000 {
		t.Errorf("the hiccup window's own p99 = %d, want the stall", p99s[2])
	}
	if got := percentile(whole, 0.99); got != 50_000_000 {
		t.Errorf("whole-run p99 = %d: the test no longer shows the contrast", got)
	}
}

func TestWindowPercentilesSkipsEmptyWindows(t *testing.T) {
	samples := []sample{{at: 5, lat: 10}, {at: 25, lat: 30}}
	got := windowPercentiles(samples, 0, 10, 3, 0.5)
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("got %v, want [10 30]", got)
	}
}

func TestHistP50Interpolates(t *testing.T) {
	bounds := []float64{10e-6, 20e-6, 40e-6}
	a := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 0, 0, 0}}
	z := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 10, 10, 0}}
	// 20 observations since a: 10 in (10,20], 10 in (20,40]: the median
	// is the top of the first of those buckets.
	if got := histP50(a, z); got < 19.9 || got > 20.1 {
		t.Errorf("histP50 = %v µs, want 20", got)
	}
	if got := histP50(z, z); got != 0 {
		t.Errorf("no observations: got %v", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110); got < 0.0999 || got > 0.1001 {
		t.Errorf("worsening(100,110) = %v, want 0.1", got)
	}
	if got := worsening(110, 100); got < 0.0999 || got > 0.1001 {
		t.Errorf("worsening is symmetric: got %v", got)
	}
}

// TestQuietQuartileIgnoresDisturbedWindows: forty windows that read 100
// when the box is quiet. A neighbour that slows more than half of them by
// a third moves the median over windows; the better quartile stays until
// three in four are hit. A change that slows every window moves both.
func TestQuietQuartileIgnoresDisturbedWindows(t *testing.T) {
	windows := func(disturbed int, base float64) []float64 {
		vs := make([]float64, 40)
		for i := range vs {
			vs[i] = base + float64(i%3) // a little spread of its own
			if i < disturbed {
				vs[i] *= 1.33
			}
		}
		return vs
	}
	if got := quiet(windows(24, 100), true); got > 102 {
		t.Errorf("lower-is-better, 24 of 40 windows disturbed: quiet = %v, want about 100", got)
	}
	if got := median(windows(24, 100)); got < 130 {
		t.Errorf("median over the same windows = %v: the test no longer shows the contrast", got)
	}
	if got := quiet(windows(0, 120), true); got < 120 {
		t.Errorf("every window 20 %% slower: quiet = %v, want it to show", got)
	}
	// Higher is better: the quartile on the other side.
	rates := []float64{70, 100, 71, 101, 72, 102, 69, 100}
	if got := quiet(rates, false); got < 100 {
		t.Errorf("higher-is-better: quiet = %v, want a quiet window's rate", got)
	}
}

// TestLatencyMetricsCutsSlicesIntoWindows: two paced slices with a gap
// between them (a saturate slice ran there). Each slice's windows are cut
// from its own start, and the reported median is the quiet quartile of
// the windows' medians.
func TestLatencyMetricsCutsSlicesIntoWindows(t *testing.T) {
	const width = int64(time.Second)
	prs := []pacedResult{
		{start: 0, end: pacedWindows * width},
		{start: 100 * width, end: (100 + pacedWindows) * width},
	}
	var samples []sample
	for r, pr := range prs {
		for w := 0; w < pacedWindows; w++ {
			lat := int32(40_000)
			if r == 0 && w < 6 {
				lat = 90_000 // a neighbour's burst over most of the first slice
			}
			for i := 0; i < 20; i++ {
				samples = append(samples, sample{at: pr.start + int64(w)*width + int64(i), lat: lat})
			}
		}
	}
	rep := &report{Values: values{}}
	latencyMetrics(rep, samples, prs)
	if got := rep.Values["latency_p50_us"]; got != 40 {
		t.Errorf("latency_p50_us = %v, want 40: 14 of 20 windows are quiet", got)
	}
	if got := rep.Values["loadgen.latency_max_us"]; got != 90 {
		t.Errorf("loadgen.latency_max_us = %v, want the burst's 90", got)
	}
}
