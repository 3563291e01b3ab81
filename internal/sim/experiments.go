package sim

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"eventsys/internal/baseline"
	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/index"
	"eventsys/internal/metrics"
	"eventsys/internal/overlay"
	"eventsys/internal/transport"
	"eventsys/internal/typing"
	"eventsys/internal/workload"
)

// Experiment identifiers; the A-numbers index the ablations in report
// order (see the eventsim table in docs/TUNING.md).
const (
	ExpTable1      = "table1"      // §5.3 RLC table
	ExpFigure7     = "fig7"        // Fig. 7 matching-rate series
	ExpGlobal      = "global"      // global RLC ≈ 1 claim
	ExpCentralized = "centralized" // centralized baseline RLC = 1
	ExpBroadcast   = "broadcast"   // broadcast per-subscriber load
	ExpPlacement   = "placement"   // A1: clustering vs random placement
	ExpPrefilter   = "prefilter"   // A2: pre-filtering vs none
	ExpTopology    = "topology"    // A4: acyclic topology comparison
	ExpEngines     = "engines"     // A5: matching-engine scaling
	ExpFlow        = "flow"        // A6: slow-consumer flow policies
	ExpRawPath     = "rawpath"     // A7: raw vs decoded forwarding path
	ExpObs         = "obs"         // A8: observability self-scrape
	ExpCluster     = "cluster"     // A9: cluster simulation scenario suite
	ExpHeal        = "heal"        // A10: broker-death failover and self-healing
	ExpPartition   = "partition"   // A11: partitioned scale-out across replicas
)

// Experiments lists all experiment identifiers in report order.
func Experiments() []string {
	return []string{ExpTable1, ExpFigure7, ExpGlobal, ExpCentralized,
		ExpBroadcast, ExpPlacement, ExpPrefilter, ExpTopology, ExpEngines,
		ExpFlow, ExpRawPath, ExpObs, ExpCluster, ExpHeal, ExpPartition}
}

// Options tunes experiments from the command line; the zero value keeps
// every experiment's defaults. Consumed by the engines (A5) and flow
// (A6) experiments.
type Options struct {
	// MaxBatch is the matching batch size (0 = 64).
	MaxBatch int
	// Subscribers overrides the A5 population size (0 = 5000).
	Subscribers int
	// FlowWindow is the A6 delivery-queue window (0 = 64).
	FlowWindow int
}

// RunExperiment executes one named experiment with default options and
// returns its report.
func RunExperiment(name string, seed uint64) (string, error) {
	return RunExperimentOpts(name, seed, Options{})
}

// RunExperimentOpts executes one named experiment and returns its report.
func RunExperimentOpts(name string, seed uint64, o Options) (string, error) {
	switch name {
	case ExpTable1:
		return Table1(seed)
	case ExpFigure7:
		return Figure7(seed)
	case ExpGlobal:
		return GlobalRLCExperiment(seed)
	case ExpCentralized:
		return CentralizedComparison(seed)
	case ExpBroadcast:
		return BroadcastComparison(seed)
	case ExpPlacement:
		return PlacementAblation(seed)
	case ExpPrefilter:
		return PrefilterAblation(seed)
	case ExpTopology:
		return TopologyComparison(seed)
	case ExpEngines:
		return EnginesExperiment(seed, o)
	case ExpFlow:
		return FlowExperiment(seed, o)
	case ExpRawPath:
		return RawPathExperiment(seed, o)
	case ExpObs:
		return ObsExperiment(seed, o)
	case ExpCluster:
		return ClusterExperiment(seed)
	case ExpHeal:
		return HealExperiment(seed)
	case ExpPartition:
		return PartitionExperiment(seed)
	default:
		return "", fmt.Errorf("sim: unknown experiment %q (have %v)", name, Experiments())
	}
}

// Table1 reproduces the Section 5.3 RLC table: per-stage node average of
// RLC and per-stage totals, on the 1/10/100 hierarchy with 1000
// subscribers (the population the paper's stage-0 numbers imply).
func Table1(seed uint64) (string, error) {
	cfg := DefaultConfig(seed, 1000, 5000)
	res, err := Run(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment T1 — §5.3 RLC table (seed=%d, subs=%d, events=%d)\n\n",
		seed, cfg.Subscribers, cfg.Events)
	b.WriteString(metrics.RenderRLCTable(res.Summaries))
	fmt.Fprintf(&b, "\nGlobal RLC total: %.4f (paper: ≈ 1)\n", res.GlobalRLC)
	fmt.Fprintf(&b, "Paper reference rows: stage0 avg 2e-7 total 2e-4 | stage1 avg 2e-4 total 2e-1 | stage2 avg 0.1 total 1 | stage3 0.02\n")
	return b.String(), nil
}

// Figure7 reproduces the matching-rate figure: MR per node for 150
// subscribers, 100 level-1 nodes, 10 level-2 nodes (plus the root).
func Figure7(seed uint64) (string, error) {
	cfg := DefaultConfig(seed, 150, 5000)
	res, err := Run(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment F7 — Fig. 7 matching rates (seed=%d, subs=%d, events=%d)\n\n",
		seed, cfg.Subscribers, cfg.Events)
	b.WriteString(metrics.RenderMRSeries(res.Stats))
	fmt.Fprintf(&b, "\nSubscriber average MR: %.3f (paper: 0.87)\n", res.SubscriberAvgMR)
	return b.String(), nil
}

// GlobalRLCExperiment verifies the claim that the sum of RLC over all
// nodes is around 1 across population sizes.
func GlobalRLCExperiment(seed uint64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment C1 — global RLC total vs population (seed=%d)\n\n", seed)
	fmt.Fprintf(&b, "%-12s %-10s %12s\n", "Subscribers", "Events", "Global RLC")
	for _, subs := range []int{100, 300, 1000} {
		cfg := DefaultConfig(seed, subs, 3000)
		res, err := Run(cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12d %-10d %12.4f\n", subs, cfg.Events, res.GlobalRLC)
	}
	b.WriteString("\nPaper: the global total of RLCs in the system is around 1.\n")
	return b.String(), nil
}

// CentralizedComparison contrasts per-node RLC of the multi-stage system
// with the centralized server's constant RLC = 1.
func CentralizedComparison(seed uint64) (string, error) {
	cfg := DefaultConfig(seed, 500, 3000)
	res, err := Run(cfg)
	if err != nil {
		return "", err
	}
	// Feed the identical subscription population and event stream to a
	// centralized server.
	subs, err := SubscriberFilters(cfg)
	if err != nil {
		return "", err
	}
	central := baseline.NewCentralized(nil, nil)
	for id, f := range subs {
		central.Subscribe(id, f)
	}
	bib, err := workload.NewBiblio(cfg.Seed, cfg.Biblio)
	if err != nil {
		return "", err
	}
	for i := 0; i < cfg.Events; i++ {
		central.Publish(bib.Event())
	}
	cs := central.Stats()
	var maxNodeRLC float64
	for _, st := range res.Stats {
		if st.Stage > 0 {
			if r := st.RLC(res.TotalEvents, res.TotalSubs); r > maxNodeRLC {
				maxNodeRLC = r
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment C2 — centralized vs multi-stage (seed=%d, subs=%d, events=%d)\n\n",
		seed, cfg.Subscribers, cfg.Events)
	fmt.Fprintf(&b, "Centralized server RLC: %.4f (paper: exactly 1)\n",
		cs.RLC(res.TotalEvents, res.TotalSubs))
	fmt.Fprintf(&b, "Multi-stage worst broker RLC: %.4f\n", maxNodeRLC)
	fmt.Fprintf(&b, "Multi-stage global RLC: %.4f\n", res.GlobalRLC)
	fmt.Fprintf(&b, "Reduction at the hottest node: %.1fx\n", 1/maxNodeRLC)
	return b.String(), nil
}

// BroadcastComparison quantifies the broadcast architecture's
// per-subscriber load growth with event rate (Section 2.1's scaling
// argument).
func BroadcastComparison(seed uint64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment C3 — broadcast per-subscriber load vs event rate (seed=%d)\n\n", seed)
	fmt.Fprintf(&b, "%-8s %22s %22s\n", "Events", "Broadcast recv/sub", "Multi-stage recv/sub")
	for _, events := range []int{500, 1000, 2000, 4000} {
		cfg := DefaultConfig(seed, 200, events)
		res, err := Run(cfg)
		if err != nil {
			return "", err
		}
		subs, err := SubscriberFilters(cfg)
		if err != nil {
			return "", err
		}
		bcast := baseline.NewBroadcast(nil)
		for id, f := range subs {
			bcast.Subscribe(id, f)
		}
		bib, err := workload.NewBiblio(cfg.Seed, cfg.Biblio)
		if err != nil {
			return "", err
		}
		for i := 0; i < events; i++ {
			bcast.Publish(bib.Event())
		}
		var bRecv, mRecv uint64
		var bn, mn int
		for _, st := range bcast.Stats() {
			bRecv += st.Received
			bn++
		}
		for _, st := range res.Stats {
			if st.Stage == 0 {
				mRecv += st.Received
				mn++
			}
		}
		fmt.Fprintf(&b, "%-8d %22.1f %22.1f\n", events,
			float64(bRecv)/float64(bn), float64(mRecv)/float64(mn))
	}
	b.WriteString("\nBroadcast load grows linearly with the event rate; multi-stage\nsubscribers receive only events surviving pre-filtering.\n")
	return b.String(), nil
}

// PlacementAblation compares the Figure 5 covering-search placement with
// random placement (A1): stored filters and forwarded event copies.
func PlacementAblation(seed uint64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment A1 — subscription placement ablation (seed=%d)\n\n", seed)
	fmt.Fprintf(&b, "%-22s %16s %18s %14s\n", "Placement", "Broker filters", "Forwarded copies", "Delivered")
	for _, random := range []bool{false, true} {
		cfg := DefaultConfig(seed, 500, 3000)
		cfg.RandomPlacement = random
		res, err := Run(cfg)
		if err != nil {
			return "", err
		}
		name := "covering-search"
		if random {
			name = "random"
		}
		fmt.Fprintf(&b, "%-22s %16d %18d %14d\n", name, res.BrokerFilters, res.ForwardTotal, res.Delivered)
	}
	b.WriteString("\nClustering similar subscriptions stores fewer covering filters and\nforwards events along fewer duplicate paths (Section 4.2).\n")
	return b.String(), nil
}

// PrefilterAblation compares multi-stage pre-filtering with a hierarchy
// whose intermediate nodes filter on class only (A2): the traffic
// reaching subscribers and their matching rates.
func PrefilterAblation(seed uint64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment A2 — pre-filtering ablation (seed=%d)\n\n", seed)
	fmt.Fprintf(&b, "%-14s %18s %16s %14s\n", "Mode", "Recv per sub", "Subscriber MR", "Delivered")
	for _, mode := range []string{"multi-stage", "class-only"} {
		cfg := DefaultConfig(seed, 300, 3000)
		if mode == "class-only" {
			// Intermediate stages keep no attributes: every Biblio event
			// floods the whole tree (no pre-filtering beyond the type).
			cfg.StageAttrs = []int{4, 0, 0, 0}
		}
		res, err := Run(cfg)
		if err != nil {
			return "", err
		}
		var recv uint64
		var n int
		for _, st := range res.Stats {
			if st.Stage == 0 {
				recv += st.Received
				n++
			}
		}
		fmt.Fprintf(&b, "%-14s %18.1f %16.3f %14d\n", mode,
			float64(recv)/float64(n), res.SubscriberAvgMR, res.Delivered)
	}
	b.WriteString("\nIdentical delivery with and without pre-filtering; pre-filtering cuts\nthe irrelevant traffic reaching the edge (MR → 1, Figure 3).\n")
	return b.String(), nil
}

// EnginesExperiment (A5) contrasts the two matching engines on one
// subscription population: the naive Figure 6 table and the
// predicate-indexed engine every runtime builds, matching the same event
// stream in batches. Unlike the other experiments this one reports
// wall-clock numbers — batch throughput plus per-event match-latency
// percentiles from an individually timed pass — reproducible with
// `go test -bench BenchmarkIndexedMatch ./internal/index`.
func EnginesExperiment(seed uint64, o Options) (string, error) {
	subs := o.Subscribers
	if subs <= 0 {
		subs = 5000
	}
	maxBatch := o.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 64
	}
	const events = 512
	bib, err := workload.NewBiblio(seed, workload.DefaultBiblio())
	if err != nil {
		return "", err
	}
	population := make([]*filter.Filter, subs)
	for i := range population {
		population[i] = bib.Subscription(0.1, true)
	}
	stream := make([]event.View, events)
	for i := range stream {
		stream[i] = bib.Event()
	}
	engines := []index.Kind{index.KindNaive, index.KindIndexed}
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment A5 — matching engines (seed=%d, subs=%d, events=%d, batch=%d, GOMAXPROCS=%d)\n\n",
		seed, subs, events, maxBatch, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-10s %14s %12s %10s %12s %12s\n",
		"Engine", "Events/sec", "Forwarded", "Speedup", "p50-match", "p99-match")
	var base float64
	for _, kind := range engines {
		eng := index.New(index.Config{Kind: kind})
		for i, f := range population {
			eng.Insert(f, fmt.Sprintf("s%d", i))
		}
		var forwarded uint64
		start := time.Now()
		for off := 0; off < len(stream); off += maxBatch {
			end := off + maxBatch
			if end > len(stream) {
				end = len(stream)
			}
			for _, r := range index.MatchEach(eng, stream[off:end]) {
				forwarded += uint64(len(r.IDs))
			}
		}
		rate := float64(len(stream)) / time.Since(start).Seconds()
		// Per-event match-latency percentiles from an individually timed
		// pass (the batch pass above warmed the engine).
		lat := make([]time.Duration, len(stream))
		for i, e := range stream {
			t0 := time.Now()
			eng.Match(e)
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if kind == index.KindNaive {
			base = rate
		}
		fmt.Fprintf(&b, "%-10s %14.0f %12d %9.2fx %12s %12s\n",
			kind, rate, forwarded, rate/base,
			lat[len(lat)*50/100], lat[len(lat)*99/100])
	}
	b.WriteString("\nBoth engines forward identical copies; indexed keeps per-event\nlatency flat as the population grows.\n")
	return b.String(), nil
}

// FlowExperiment (A6) contrasts the four slow-consumer flow policies on
// a live two-stage overlay with one deliberately slow subscriber: a
// publisher bursts events much faster than the subscriber's handler
// consumes them, and each policy resolves the overload differently —
// Block backpressures the publisher (zero loss, publish slows), the
// drop policies shed (newest-first keeps the oldest backlog, oldest-
// first keeps the freshest), and spill diverts overflow to the
// subscriber's backlog for in-order replay. The table reports what each
// policy did with the same traffic.
func FlowExperiment(seed uint64, o Options) (string, error) {
	window := o.FlowWindow
	if window <= 0 {
		window = 64
	}
	const events = 800
	policies := []flow.Policy{flow.Block, flow.DropNewest, flow.DropOldest, flow.SpillToStore}
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment A6 — slow-consumer flow policies (seed=%d, events=%d, window=%d)\n\n",
		seed, events, window)
	fmt.Fprintf(&b, "%-12s %10s %9s %9s %8s %8s %10s\n",
		"Policy", "Delivered", "Dropped", "Spilled", "Stalls", "MaxQ", "Total(ms)")
	for _, p := range policies {
		sys, err := overlay.New(overlay.Config{
			Fanouts:    []int{1, 2},
			Seed:       seed,
			FlowPolicy: p,
			FlowWindow: window,
		})
		if err != nil {
			return "", err
		}
		ad, err := typing.NewAdvertisement("Tick", 3, "n")
		if err != nil {
			sys.Close()
			return "", err
		}
		if err := sys.Advertise(ad); err != nil {
			sys.Close()
			return "", err
		}
		sub := filter.Subscription{filter.MustParseFilter(`class = "Tick"`)}
		h, err := sys.Subscribe("slow", sub, func(*event.Event) {
			time.Sleep(200 * time.Microsecond) // the slow consumer
		})
		if err != nil {
			sys.Close()
			return "", err
		}
		start := time.Now()
		for i := 0; i < events; i++ {
			e := event.NewBuilder("Tick").Int("n", int64(i)).Build()
			if err := sys.Publish(e); err != nil {
				sys.Close()
				return "", err
			}
		}
		sys.Flush()
		total := time.Since(start)
		var dropped, spilled, stalled uint64
		for _, st := range sys.Stats() {
			dropped += st.Dropped
			spilled += st.Spilled
			stalled += st.Stalled
		}
		maxQ := 0
		for _, qs := range sys.FlowStats() {
			if qs.DepthMax > maxQ {
				maxQ = qs.DepthMax
			}
		}
		fmt.Fprintf(&b, "%-12s %10d %9d %9d %8d %8d %10.1f\n",
			p, h.Delivered(), dropped, spilled, stalled, maxQ,
			float64(total.Microseconds())/1000)
		sys.Close()
	}
	b.WriteString("\nBlock publishes slowest but loses nothing; the drop policies bound\n")
	b.WriteString("latency by shedding (counted); spill defers overflow to the backlog\n")
	b.WriteString("and replays it in order once the consumer catches up.\n")
	return b.String(), nil
}

// RawPathExperiment (A7) quantifies the zero-copy event path: one broker
// forward hop — read an inbound Forward frame, match it against the
// subscription table, frame it for the next peer — measured on the two
// event representations. The raw path matches lazily over the wire bytes
// and relays them untouched; the decoded path is the pre-refactor cost
// model (materialize the event, match the decoded form, re-encode for
// the next hop). Reproduce with `go test -bench BenchmarkForwardPath .`.
func RawPathExperiment(seed uint64, o Options) (string, error) {
	subs := o.Subscribers
	if subs <= 0 {
		subs = 2000
	}
	const ring = 256
	const rounds = 40
	bib, err := workload.NewBiblio(seed, workload.DefaultBiblio())
	if err != nil {
		return "", err
	}
	table := index.NewIndexedTable(nil)
	for i := 0; i < subs; i++ {
		table.Insert(bib.Subscription(0.1, true), fmt.Sprintf("s%d", i))
	}
	var stream bytes.Buffer
	for i := 0; i < ring; i++ {
		ev := bib.Event()
		ev.ID = uint64(i + 1)
		if err := transport.WriteFrame(&stream, transport.Forward{Event: event.EncodeRaw(ev)}); err != nil {
			return "", err
		}
	}
	frames := stream.Bytes()

	run := func(decoded bool) (rate float64, allocPerEvent float64, err error) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		n := 0
		for round := 0; round < rounds; round++ {
			rd := bytes.NewReader(frames)
			fr := transport.NewFrameReader(rd)
			for rd.Len() > 0 {
				m, err := fr.ReadFrame()
				if err != nil {
					return 0, 0, err
				}
				fwd := m.(transport.Forward)
				if decoded {
					ev := fwd.Event.Event()
					table.Match(ev)
					if err := transport.WriteFrame(io.Discard, transport.Forward{Event: event.EncodeRaw(ev.Clone())}); err != nil {
						return 0, 0, err
					}
				} else {
					table.Match(fwd.Event)
					if err := transport.WriteFrame(io.Discard, fwd); err != nil {
						return 0, 0, err
					}
				}
				n++
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		return float64(n) / elapsed.Seconds(),
			float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n), nil
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Experiment A7 — raw vs decoded forwarding path (seed=%d, subs=%d, events=%d)\n\n",
		seed, subs, ring*rounds)
	fmt.Fprintf(&b, "%-10s %14s %14s %10s\n", "Path", "Events/sec", "Alloc B/ev", "Speedup")
	decRate, decAlloc, err := run(true)
	if err != nil {
		return "", err
	}
	rawRate, rawAlloc, err := run(false)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-10s %14.0f %14.0f %9.2fx\n", "decoded", decRate, decAlloc, 1.0)
	fmt.Fprintf(&b, "%-10s %14.0f %14.0f %9.2fx\n", "raw", rawRate, rawAlloc, rawRate/decRate)
	b.WriteString("\nThe raw path matches lazily over wire bytes and relays them\nuntouched: one encode per publish, one decode per delivery, and the\nbroker hop itself allocates only the frame views.\n")
	return b.String(), nil
}
