package peering

import (
	"fmt"
	"testing"

	"eventsys/internal/filter"
	"eventsys/internal/metrics"
	"eventsys/internal/workload"
)

// alertFilters draws n alarm subscriptions of the monitoring workload,
// the population one alerts-16k sink registers under its ID.
func alertFilters(tb testing.TB, n int) []*filter.Filter {
	tb.Helper()
	al, err := workload.NewAlerts(7, workload.DefaultAlerts())
	if err != nil {
		tb.Fatal(err)
	}
	fs := make([]*filter.Filter, n)
	for i := range fs {
		fs[i] = al.Subscription()
	}
	return fs
}

// TestSubscribeAbsorbIsSubLinear registers 2 001 alarm subscriptions
// under one ID and reads the cost off the counters, no clock involved:
// the covering index must run at most a tenth of the exact checks a scan
// of the subscriber's filters runs, and absorb exactly the same
// subscriptions.
func TestSubscribeAbsorbIsSubLinear(t *testing.T) {
	fs := alertFilters(t, 2001)

	// The scan the index replaced: every held filter until one covers.
	var held []*filter.Filter
	scanChecks, scanAbsorbed := 0, 0
	for _, f := range fs {
		strong, covered := filter.NewStrong(f, nil), false
		for _, g := range held {
			scanChecks++
			if covered = strong.CoveredBy(g); covered {
				break
			}
		}
		if covered {
			scanAbsorbed++
		} else {
			held = append(held, f)
		}
	}

	counters := &metrics.Counters{}
	c := New(Config{Counters: counters})
	for _, f := range fs {
		c.Subscribe("sink", f)
	}
	if got := int(counters.PeerAbsorbed()); got != scanAbsorbed {
		t.Fatalf("absorbed %d subscriptions, the scan absorbs %d", got, scanAbsorbed)
	}
	if c.FilterCount() != len(held) {
		t.Fatalf("holds %d filters, the scan holds %d", c.FilterCount(), len(held))
	}
	perSub := float64(counters.CoverChecks()) / float64(len(fs))
	scanPerSub := float64(scanChecks) / float64(len(fs))
	t.Logf("exact checks per Subscribe: index %.1f, scan %.1f (absorbed %d of %d)",
		perSub, scanPerSub, scanAbsorbed, len(fs))
	if perSub > scanPerSub/10 {
		t.Fatalf("index runs %.1f checks per Subscribe, more than a tenth of the scan's %.1f", perSub, scanPerSub)
	}
}

// BenchmarkCoreSubscribe fills one subscriber ID with filters-per-id
// alarm subscriptions on a core with one peer link, so every Subscribe
// runs both covering queries — absorb against the ID's own filters and
// pruning against the link's sent set. ns/subscribe and checks/subscribe
// stay flat across sizes when the covering index keeps both sub-linear;
// a scan makes them grow with the population.
func BenchmarkCoreSubscribe(b *testing.B) {
	for _, n := range []int{1, 100, 2000} {
		b.Run(fmt.Sprintf("filters-per-id=%d", n), func(b *testing.B) {
			fs := alertFilters(b, n)
			counters := &metrics.Counters{}
			for b.Loop() {
				c := New(Config{Counters: counters})
				c.AddLink("peer")
				for _, f := range fs {
					c.Subscribe("sink", f)
				}
			}
			subs := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/subs, "ns/subscribe")
			b.ReportMetric(float64(counters.CoverChecks())/subs, "checks/subscribe")
		})
	}
}
