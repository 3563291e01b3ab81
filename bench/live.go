package main

import (
	"fmt"
	"strings"

	"eventsys/internal/broker"
	"eventsys/internal/flow"
	"eventsys/internal/metrics"
	"eventsys/internal/obs"
)

// liveSnap is every broker's and client's public counters at one phase
// boundary.
type liveSnap struct {
	nodes    []metrics.NodeStats
	flows    [][]flow.Snapshot
	peers    [][]broker.PeerLinkStats
	hops     [3]obs.HistogramSnapshot // the ingress broker's hop histograms
	pubWaits uint64
	received uint64 // events reaching client subscribers
	passed   uint64 // of those, events passing the perfect filter
}

// live collects the traced run's live counters: a snapshot at every
// phase boundary, read through public accessors only. A mark names the
// phase that starts at it; the phase ends at the next mark.
type live struct {
	b     *bed
	on    bool
	names []string
	marks []liveSnap
}

// newLive takes the "base" snapshot, right after set-up.
func newLive(b *bed, on bool) *live {
	l := &live{b: b, on: on}
	l.mark("base")
	return l
}

// phases returns the snapshots at the start and the end of every phase
// of that name, in order.
func (l *live) phases(name string) (segs [][2]liveSnap) {
	for i := 0; i+1 < len(l.marks); i++ {
		if l.names[i] == name {
			segs = append(segs, [2]liveSnap{l.marks[i], l.marks[i+1]})
		}
	}
	return segs
}

func (l *live) mark(name string) {
	if !l.on {
		return
	}
	var s liveSnap
	for _, srv := range l.b.servers {
		s.nodes = append(s.nodes, srv.Stats())
		s.flows = append(s.flows, srv.FlowStats())
		s.peers = append(s.peers, srv.PeerStats())
	}
	for h := range s.hops {
		s.hops[h] = l.b.servers[0].Tracer().Hist(obs.Hop(h)).Snapshot()
	}
	s.pubWaits = l.b.pub.CreditWaits()
	for _, c := range l.b.clients {
		if c != nil {
			r, p := c.Stats()
			s.received += r
			s.passed += p
		}
	}
	l.names, l.marks = append(l.names, name), append(l.marks, s)
}

// histP50 returns the median of the observations made between two
// snapshots of one histogram, interpolating inside its bucket, in µs.
func histP50(a, z obs.HistogramSnapshot) float64 {
	var total uint64
	counts := make([]uint64, len(z.Counts))
	for i := range counts {
		counts[i] = z.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range counts {
		if c > 0 && 2*(seen+c) >= total {
			lo, hi := 0.0, z.Bounds[len(z.Bounds)-1]
			if i > 0 {
				lo = z.Bounds[i-1]
			}
			if i < len(z.Bounds) {
				hi = z.Bounds[i]
			}
			return (lo + (hi-lo)*(float64(total)/2-float64(seen))/float64(c)) * 1e6
		}
		seen += c
	}
	return 0
}

// totalStalls sums one broker's queues: the same connections are up from
// the start of a slice to its end, so the sum only grows.
func totalStalls(queues []flow.Snapshot) (n uint64) {
	for _, q := range queues {
		n += q.Stalls
	}
	return n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics turns the snapshots into the live per-layer metrics. Load
// counters are summed over the saturate slices; ratios run from the probe
// to the end; high-water marks are as of the end of the last saturate.
func (l *live) metrics(rep *report) {
	base, end := l.marks[0], l.marks[len(l.marks)-1]
	sats := l.phases("saturate")
	v := rep.Values

	var inletMax, outMax int
	var stalls, waits, batchSum, batches uint64
	for _, seg := range sats {
		a, z := seg[0], seg[1]
		for i := range z.flows {
			stalls += totalStalls(z.flows[i]) - totalStalls(a.flows[i])
			waits += z.nodes[i].CreditWaits - a.nodes[i].CreditWaits
		}
		waits += z.pubWaits - a.pubWaits
		batchSum += z.nodes[0].BatchSizeSum - a.nodes[0].BatchSizeSum
		batches += z.nodes[0].BatchesMatched - a.nodes[0].BatchesMatched
	}
	for _, qs := range sats[len(sats)-1][1].flows {
		for _, q := range qs {
			if q.Name == "inlet" {
				inletMax = max(inletMax, q.DepthMax)
			} else if strings.HasPrefix(q.Name, "out/") {
				outMax = max(outMax, q.DepthMax)
			}
		}
	}
	v["flow.inlet_depth_max"] = float64(inletMax)
	v["flow.out_depth_max"] = float64(outMax)
	v["flow.stalls"] = float64(stalls)
	v["flow.credit_waits"] = float64(waits)

	filters := 0
	var forwards, suppressed, propagated uint64
	for i, n := range end.nodes {
		filters = max(filters, n.Filters)
		for j, p := range end.peers[i] {
			forwards += p.Forwards - base.peers[i][j].Forwards
			suppressed += p.Suppressed
			propagated += p.Propagated
		}
	}
	v["index.filters"] = float64(filters)
	v["peering.forwards"] = float64(forwards)
	v["peering.suppressed_ratio"] = ratio(suppressed, suppressed+propagated)

	v["routing.batch_avg"] = ratio(batchSum, batches)
	for i := 0; i < 3; i++ {
		mr := 0.0
		if i < len(end.nodes) {
			mr = ratio(end.nodes[i].Matched-base.nodes[i].Matched, end.nodes[i].Received-base.nodes[i].Received)
		}
		v[fmt.Sprintf("routing.mr.b%d", i)] = mr
	}
	v["filter.perfect_pass_ratio"] = ratio(end.passed-base.passed, end.received-base.received)

	var appended, bytes uint64
	for _, n := range end.nodes {
		appended += n.StoreAppended
		bytes += n.StoredBytes
	}
	v["store.bytes_per_event"] = ratio(bytes, appended)

	for h, name := range []string{"match", "forward", "deliver"} {
		// The observations of every paced slice, as one histogram.
		var none, all obs.HistogramSnapshot
		for _, seg := range l.phases("paced") {
			a, z := seg[0].hops[h], seg[1].hops[h]
			if all.Counts == nil {
				all.Bounds, all.Counts, none.Counts = z.Bounds, make([]uint64, len(z.Counts)), make([]uint64, len(z.Counts))
			}
			for i := range z.Counts {
				all.Counts[i] += z.Counts[i] - a.Counts[i]
			}
		}
		v["broker.hop_"+name+"_p50_us"] = histP50(none, all)
	}
}
