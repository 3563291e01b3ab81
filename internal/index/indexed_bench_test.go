package index

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/workload"
)

// benchAlertPop caches populated engines and event streams across
// benchmark calibration rounds: populating a 1M-subscription engine
// takes seconds and must not be repeated for every b.N refinement.
var benchAlertPop = map[string]Engine{}
var benchAlertEvents, benchAlertEventsAll []event.View

func alertEvents(b *testing.B) []event.View {
	b.Helper()
	if benchAlertEvents == nil {
		a, err := workload.NewAlerts(101, workload.DefaultAlerts())
		if err != nil {
			b.Fatal(err)
		}
		benchAlertEvents = make([]event.View, 8192)
		for i := range benchAlertEvents {
			benchAlertEvents[i] = a.Event()
		}
	}
	return benchAlertEvents
}

// alertEventsAllAttrs is the alertEvents stream with the note attribute
// (which the generator leaves off 99% of events) present, empty, on every
// event: the standard form demands every advertised attribute.
func alertEventsAllAttrs(b *testing.B) []event.View {
	b.Helper()
	if benchAlertEventsAll == nil {
		for _, v := range alertEvents(b) {
			e := v.(*event.Event).Clone()
			if !e.Has("note") {
				e.Set("note", event.String(""))
			}
			benchAlertEventsAll = append(benchAlertEventsAll, e)
		}
	}
	return benchAlertEventsAll
}

// alertSchema is the Alert advertisement a broker standardizes against.
var alertSchema = filter.SchemaOf("metric", "value", "topic", "note")

// alertEngine populates (once) an engine with the alert population; std
// stores each subscription in the Section 4.4 standard form, as a broker
// holding a four-attribute Alert advertisement does.
func alertEngine(b *testing.B, kind Kind, subs int, std bool) Engine {
	b.Helper()
	key := fmt.Sprintf("%s-%d-%v", kind, subs, std)
	if eng, ok := benchAlertPop[key]; ok {
		return eng
	}
	a, err := workload.NewAlerts(7, workload.DefaultAlerts())
	if err != nil {
		b.Fatal(err)
	}
	eng := New(Config{Kind: kind})
	for i := 0; i < subs; i++ {
		f := a.Subscription()
		if std {
			f = f.Standardize(alertSchema)
		}
		eng.Insert(f, fmt.Sprintf("sub-%07d", i))
	}
	benchAlertPop[key] = eng
	return eng
}

// BenchmarkIndexedMatch is the headline curve for the predicate-indexed
// engine: per-event match cost on the alert workload (Zipf-skewed
// metric-equality, threshold-alarm and topic-prefix subscriptions) at
// 10k, 100k and 1M subscriptions, against the naive table at 10k (its
// per-event scan of every filter makes larger populations impractical).
// The indexed-std case is the same population as a broker stores it —
// standardized against the four-attribute advertisement, matched against
// events carrying all four. Its wildcards are verified at hit time, not
// counted, so it costs what the unstandardized population costs on the
// same events (more than indexed-subs: with a note on every event the
// exists(note) alarms fire and the note-contains scan list is walked).
// Besides ns/op it reports p50-ns and p99-ns per-event latency from an
// individually-timed sample pass, since the tail (events whose value
// lands in the alarm bands) is far more expensive than the median.
func BenchmarkIndexedMatch(b *testing.B) {
	type cfg struct {
		kind Kind
		subs int
		std  bool
	}
	cases := []cfg{
		{KindNaive, 10_000, false},
		{KindIndexed, 10_000, false},
		{KindIndexed, 100_000, false},
		{KindIndexed, 1_000_000, false},
		{KindIndexed, 100_000, true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-subs=%d", c.kind, c.subs)
		if c.std {
			name = fmt.Sprintf("%s-std-subs=%d", c.kind, c.subs)
		}
		b.Run(name, func(b *testing.B) {
			events := alertEvents(b)
			if c.std {
				events = alertEventsAllAttrs(b)
			}
			eng := alertEngine(b, c.kind, c.subs, c.std)
			// Percentile sample pass (untimed by the framework), after a
			// warmup pass so the percentiles reflect steady state rather
			// than a cold cache and a post-population GC.
			sample := len(events)
			if c.kind == KindNaive {
				sample = 512 // linear engine: keep setup bounded
			}
			for i := 0; i < sample; i++ {
				eng.Match(events[i%len(events)])
			}
			// A time.Now/Since pair has a fixed cost of its own (~100ns on
			// virtualized clocks); subtract the minimum observed empty-pair
			// cost so the percentiles reflect Match itself.
			overhead := time.Duration(1 << 62)
			for i := 0; i < 4096; i++ {
				start := time.Now()
				if d := time.Since(start); d < overhead {
					overhead = d
				}
			}
			lat := make([]time.Duration, sample)
			for i := 0; i < sample; i++ {
				start := time.Now()
				eng.Match(events[i%len(events)])
				if lat[i] = time.Since(start) - overhead; lat[i] < 0 {
					lat[i] = 0
				}
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			i := 0
			for b.Loop() {
				eng.Match(events[i%len(events)])
				i++
			}
			// After the loop: b.Loop's implicit ResetTimer clears extra
			// metrics recorded earlier.
			b.ReportMetric(float64(lat[sample*50/100].Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(lat[sample*99/100].Nanoseconds()), "p99-ns")
		})
	}
}

// BenchmarkIndexedChurn measures subscription turnover on a populated
// indexed engine: one Insert plus one RemoveID per op, exercising the
// delta buffers, tombstone accounting and amortized purge at steady
// state.
func BenchmarkIndexedChurn(b *testing.B) {
	const subs = 100_000
	a, err := workload.NewAlerts(7, workload.DefaultAlerts())
	if err != nil {
		b.Fatal(err)
	}
	eng := NewIndexedTable(nil)
	filters := make([]*filter.Filter, subs)
	for i := 0; i < subs; i++ {
		filters[i] = a.Subscription()
		eng.Insert(filters[i], fmt.Sprintf("sub-%07d", i))
	}
	b.ResetTimer()
	i := 0
	for b.Loop() {
		id := fmt.Sprintf("churn-%07d", i%subs)
		eng.Insert(filters[i%subs], id)
		eng.RemoveID(id)
		i++
	}
}
