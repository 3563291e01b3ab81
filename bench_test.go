// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 5) plus the ablations in DESIGN.md. Each benchmark
// reports the quantities the paper's artifact states as custom metrics
// (RLC, MR, stored filters), so `go test -bench` output stands in for
// the paper's tables:
//
//	BenchmarkTable1RLC        — §5.3 RLC table (global RLC, per-stage via eventsim)
//	BenchmarkFigure7MR        — Fig. 7 subscriber matching rate
//	BenchmarkGlobalRLC        — "global total of RLCs ≈ 1" claim
//	BenchmarkCentralizedRLC   — centralized baseline (RLC = 1 by construction)
//	BenchmarkBroadcast        — broadcast baseline per-subscriber load
//	BenchmarkPlacementAblation— A1: covering-search vs random placement
//	BenchmarkPrefilterAblation— A2: pre-filtering vs class-only flooding
//	BenchmarkMatchingEngines  — A3: naive table (Fig. 6) vs predicate index
//
// plus microbenchmarks for the core operations (matching, covering,
// weakening, parsing, reflection extraction, wire codec, end-to-end
// overlay throughput).
package eventsys

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"eventsys/internal/baseline"
	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/index"
	"eventsys/internal/mesh"
	"eventsys/internal/object"
	"eventsys/internal/obs"
	"eventsys/internal/partition"
	"eventsys/internal/sim"
	"eventsys/internal/store"
	"eventsys/internal/transport"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
	"eventsys/internal/workload"
)

// --- experiment benchmarks (one per table / figure / claim) ---

// BenchmarkTable1RLC regenerates the §5.3 RLC table's populations. The
// per-stage rows print via `go run ./cmd/eventsim -experiment table1`;
// here the headline aggregates are reported as metrics.
func BenchmarkTable1RLC(b *testing.B) {
	for b.Loop() {
		res, err := sim.Run(sim.DefaultConfig(1, 1000, 5000))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GlobalRLC, "globalRLC")
		b.ReportMetric(res.SubscriberAvgMR, "subMR")
	}
}

// BenchmarkFigure7MR regenerates the Fig. 7 population (150 subscribers)
// and reports the subscriber-average matching rate (paper: 0.87).
func BenchmarkFigure7MR(b *testing.B) {
	for b.Loop() {
		res, err := sim.Run(sim.DefaultConfig(1, 150, 5000))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SubscriberAvgMR, "subMR")
	}
}

// BenchmarkGlobalRLC measures the global RLC total across population
// sizes (paper claim C1: ≈ 1; lower is better — our filter collapsing
// lands well below 1).
func BenchmarkGlobalRLC(b *testing.B) {
	for _, subs := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			for b.Loop() {
				res, err := sim.Run(sim.DefaultConfig(1, subs, 3000))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.GlobalRLC, "globalRLC")
			}
		})
	}
}

// BenchmarkCentralizedRLC measures the centralized baseline (C2): all
// subscriptions at one server, RLC = 1 by construction, and the raw
// matching throughput that implies.
func BenchmarkCentralizedRLC(b *testing.B) {
	bib, err := workload.NewBiblio(1, workload.DefaultBiblio())
	if err != nil {
		b.Fatal(err)
	}
	central := baseline.NewCentralized(nil, nil)
	for i := 0; i < 500; i++ {
		central.Subscribe(fmt.Sprintf("s%d", i), bib.Subscription(0, true))
	}
	b.ResetTimer()
	n := 0
	for b.Loop() {
		central.Publish(bib.Event())
		n++
	}
	st := central.Stats()
	b.ReportMetric(st.RLC(uint64(n), 500)*float64(n)/float64(st.Received), "RLC")
}

// BenchmarkBroadcast measures the broadcast baseline (C3): every
// subscriber filters every event; per-event cost grows with membership.
func BenchmarkBroadcast(b *testing.B) {
	for _, members := range []int{100, 400} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			bib, err := workload.NewBiblio(1, workload.DefaultBiblio())
			if err != nil {
				b.Fatal(err)
			}
			bcast := baseline.NewBroadcast(nil)
			for i := 0; i < members; i++ {
				bcast.Subscribe(fmt.Sprintf("s%d", i), bib.Subscription(0, true))
			}
			b.ResetTimer()
			for b.Loop() {
				bcast.Publish(bib.Event())
			}
		})
	}
}

// BenchmarkPlacementAblation compares the Figure 5 covering-search
// placement with random placement (A1): stored broker filters and
// forwarded event copies, identical delivery.
func BenchmarkPlacementAblation(b *testing.B) {
	for _, random := range []bool{false, true} {
		name := "covering"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				cfg := sim.DefaultConfig(1, 500, 2000)
				cfg.RandomPlacement = random
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.BrokerFilters), "filters")
				b.ReportMetric(float64(res.ForwardTotal), "forwards")
			}
		})
	}
}

// BenchmarkPrefilterAblation compares multi-stage pre-filtering with
// class-only flooding (A2): traffic reaching subscribers.
func BenchmarkPrefilterAblation(b *testing.B) {
	for _, mode := range []string{"multistage", "classonly"} {
		b.Run(mode, func(b *testing.B) {
			for b.Loop() {
				cfg := sim.DefaultConfig(1, 300, 2000)
				if mode == "classonly" {
					cfg.StageAttrs = []int{4, 0, 0, 0}
				}
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var recv uint64
				var n int
				for _, st := range res.Stats {
					if st.Stage == 0 {
						recv += st.Received
						n++
					}
				}
				b.ReportMetric(float64(recv)/float64(n), "recv/sub")
			}
		})
	}
}

// BenchmarkMatchingEngines contrasts the naive Figure 6 table with the
// predicate-indexed engine across subscription populations (A3):
// matching cost per event. BenchmarkIndexedMatch in internal/index
// carries the large-population (10k–1M) indexed-engine curve.
func BenchmarkMatchingEngines(b *testing.B) {
	for _, filters := range []int{100, 1000, 5000} {
		for _, kind := range []index.Kind{index.KindNaive, index.KindIndexed} {
			b.Run(fmt.Sprintf("%s/filters=%d", kind, filters), func(b *testing.B) {
				bib, err := workload.NewBiblio(7, workload.DefaultBiblio())
				if err != nil {
					b.Fatal(err)
				}
				eng := index.New(index.Config{Kind: kind})
				for i := 0; i < filters; i++ {
					eng.Insert(bib.Subscription(0.1, true), fmt.Sprintf("id%d", i))
				}
				events := make([]event.View, 512)
				for i := range events {
					events[i] = bib.Event()
				}
				b.ResetTimer()
				i := 0
				for b.Loop() {
					eng.Match(events[i%len(events)])
					i++
				}
			})
		}
	}
}

// --- microbenchmarks for core operations ---

func BenchmarkFilterMatch(b *testing.B) {
	f := filter.MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10 && volume >= 1000`)
	e := event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 9).Int("volume", 5000).Build()
	b.ReportAllocs()
	for b.Loop() {
		if !f.Matches(e, nil) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkCovers(b *testing.B) {
	weak := filter.MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 11`)
	strong := filter.MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10`)
	b.ReportAllocs()
	for b.Loop() {
		if !filter.Covers(weak, strong, nil) {
			b.Fatal("must cover")
		}
	}
}

func BenchmarkWeakenFilter(b *testing.B) {
	var ads typing.AdvertisementSet
	ad, err := typing.NewAdvertisement("Biblio", 4, "year", "conference", "author", "title")
	if err != nil {
		b.Fatal(err)
	}
	if err := ads.Put(ad); err != nil {
		b.Fatal(err)
	}
	w := weaken.New(&ads, nil)
	f := filter.MustParseFilter(`class = "Biblio" && year = 2002 && conference = "ICDCS" && author = "Eugster"`)
	b.ReportAllocs()
	for b.Loop() {
		for stage := 1; stage <= 3; stage++ {
			w.Filter(f, stage)
		}
	}
}

func BenchmarkParseFilter(b *testing.B) {
	const src = `class = "Stock" && symbol = "Foo" && price < 10.0 && note prefix "q" || class = "Auction"`
	b.ReportAllocs()
	for b.Loop() {
		if _, err := filter.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

type benchStock struct {
	Symbol string
	Price  float64
	Volume int64
}

func BenchmarkObjectExtract(b *testing.B) {
	s := benchStock{Symbol: "Foo", Price: 9.5, Volume: 100}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := object.Extract(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	e := event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 9.5).
		Int("volume", 100).Payload(make([]byte, 256)).ID(1).Build()
	raw := event.EncodeRaw(e)
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := transport.WriteFrame(&buf, transport.Publish{Event: raw}); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardPath measures one broker forward hop — read an
// inbound Forward frame, match it against the subscription table, frame
// it for the next peer — on the two event representations: "raw" is the
// zero-copy path shipped here (match over wire bytes, relay the same
// bytes), "decoded" is the old per-hop cost (materialize the event,
// match the decoded form, re-encode for the next hop). The raw row's
// allocs/op is the headline number of the zero-copy refactor; CI gates
// on its throughput via scripts/bench_compare.sh.
func BenchmarkForwardPath(b *testing.B) {
	bib, err := workload.NewBiblio(7, workload.DefaultBiblio())
	if err != nil {
		b.Fatal(err)
	}
	table := index.NewIndexedTable(nil)
	for i := 0; i < 1000; i++ {
		table.Insert(bib.Subscription(0.1, true), fmt.Sprintf("s%d", i))
	}
	// Pre-frame a ring of Forward frames, as they would arrive on a peer
	// link.
	const ring = 256
	var stream bytes.Buffer
	for i := 0; i < ring; i++ {
		ev := bib.Event()
		ev.ID = uint64(i + 1)
		if err := transport.WriteFrame(&stream, transport.Forward{Event: event.EncodeRaw(ev)}); err != nil {
			b.Fatal(err)
		}
	}
	frames := stream.Bytes()
	// The raw path carries the production tracing guards with a
	// disabled tracer — the cost the bench gate pins at ~zero: one
	// atomic load per frame, no stamps, no histogram writes.
	tracer := obs.NewTracer()
	for _, mode := range []string{"raw", "decoded"} {
		b.Run(mode, func(b *testing.B) {
			rd := bytes.NewReader(frames)
			fr := transport.NewFrameReader(rd)
			b.ReportAllocs()
			for b.Loop() {
				if rd.Len() == 0 {
					rd.Reset(frames)
				}
				m, err := fr.ReadFrame()
				if err != nil {
					b.Fatal(err)
				}
				fwd := m.(transport.Forward)
				if mode == "raw" {
					if tracer.Enabled() {
						fwd.Event.SetStamp(obs.Nanotime())
					}
					table.Match(fwd.Event)
					if err := transport.WriteFrame(io.Discard, fwd); err != nil {
						b.Fatal(err)
					}
					if tracer.Enabled() {
						tracer.Observe(obs.HopForward, fwd.Event.Stamp())
					}
					continue
				}
				// The pre-refactor hop: decode, match the decoded event,
				// re-encode for the next peer.
				ev := fwd.Event.Event()
				table.Match(ev)
				reframed := transport.Forward{Event: event.EncodeRaw(ev.Clone())}
				if err := transport.WriteFrame(io.Discard, reframed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionedFanIn measures the publisher-side partition
// decision — hash the event's key fields (class + leading attribute),
// map the key onto a partition, look up the owning replica in the
// rendezvous table — over pre-encoded wire events. This is the per-
// publish cost sharding adds ahead of the forward path, paid once per
// event by every partition-aware publisher fanning in to the owning
// replica; CI gates on its throughput via scripts/bench_compare.sh and
// the headline is allocs/op = 0.
func BenchmarkPartitionedFanIn(b *testing.B) {
	bib, err := workload.NewBiblio(7, workload.DefaultBiblio())
	if err != nil {
		b.Fatal(err)
	}
	const ring = 256
	events := make([]*event.Raw, ring)
	for i := range events {
		ev := bib.Event()
		ev.ID = uint64(i + 1)
		events[i] = event.EncodeRaw(ev)
	}
	reps := make([]partition.Replica, 8)
	for i := range reps {
		reps[i] = partition.Replica{
			ID:   fmt.Sprintf("broker-%d", i),
			Addr: fmt.Sprintf("10.0.0.%d:7070", i+1),
		}
	}
	m := partition.New(64, reps)
	b.ReportAllocs()
	var sink uint64
	i := 0
	for b.Loop() {
		r := m.Owner(m.PartitionOf(partition.KeyOf(events[i&(ring-1)])))
		sink += uint64(len(r.Addr))
		i++
	}
	if sink == 0 {
		b.Fatal("partition decision resolved no owners")
	}
}

// BenchmarkForwardPathTraced is the raw forward hop of
// BenchmarkForwardPath with hop-latency tracing ENABLED: each frame is
// stamped on read and the match and forward stages record into the
// tracer's histograms. Compare its ns/op and allocs/op against
// BenchmarkForwardPath/raw to read the tracing overhead directly
// (scripts/bench.sh emits the comparison as FORWARD_PATH.txt).
func BenchmarkForwardPathTraced(b *testing.B) {
	bib, err := workload.NewBiblio(7, workload.DefaultBiblio())
	if err != nil {
		b.Fatal(err)
	}
	table := index.NewIndexedTable(nil)
	for i := 0; i < 1000; i++ {
		table.Insert(bib.Subscription(0.1, true), fmt.Sprintf("s%d", i))
	}
	const ring = 256
	var stream bytes.Buffer
	for i := 0; i < ring; i++ {
		ev := bib.Event()
		ev.ID = uint64(i + 1)
		if err := transport.WriteFrame(&stream, transport.Forward{Event: event.EncodeRaw(ev)}); err != nil {
			b.Fatal(err)
		}
	}
	frames := stream.Bytes()
	tracer := obs.NewTracer()
	tracer.Enable(true)
	rd := bytes.NewReader(frames)
	fr := transport.NewFrameReader(rd)
	b.ReportAllocs()
	for b.Loop() {
		if rd.Len() == 0 {
			rd.Reset(frames)
		}
		m, err := fr.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		fwd := m.(transport.Forward)
		if tracer.Enabled() {
			fwd.Event.SetStamp(obs.Nanotime())
		}
		table.Match(fwd.Event)
		tracer.Observe(obs.HopMatch, fwd.Event.Stamp())
		if err := transport.WriteFrame(io.Discard, fwd); err != nil {
			b.Fatal(err)
		}
		if tracer.Enabled() {
			tracer.Observe(obs.HopForward, fwd.Event.Stamp())
		}
	}
	if tracer.Hist(obs.HopForward).Count() == 0 {
		b.Fatal("traced benchmark recorded nothing")
	}
}

// BenchmarkStoreAppend measures durable-store append throughput under
// each fsync policy: "always" pays an fsync per event, "batched"
// amortizes it over 64 appends / 100ms, "os" leaves syncing to the page
// cache.
func BenchmarkStoreAppend(b *testing.B) {
	for _, mode := range []struct {
		name      string
		syncEvery int
	}{{"always", 1}, {"batched", 0}, {"os", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{SyncEvery: mode.syncEvery})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, _, err := st.Register("w"); err != nil {
				b.Fatal(err)
			}
			e := event.EncodeRaw(event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 9.5).
				Int("volume", 100).Payload(make([]byte, 256)).ID(1).Build())
			b.ReportAllocs()
			var bytes uint64
			for b.Loop() {
				_, n, err := st.Append("w", e)
				if err != nil {
					b.Fatal(err)
				}
				bytes += uint64(n)
			}
			b.SetBytes(int64(bytes / uint64(b.N)))
		})
	}
}

// BenchmarkStoreReplay measures replay throughput: each operation drains
// a pre-built 1000-event backlog from disk through the cursor machinery.
// Small segments keep compaction reclaiming consumed records between
// iterations, so per-op work stays constant.
func BenchmarkStoreReplay(b *testing.B) {
	const backlog = 1000
	st, err := store.Open(b.TempDir(), store.Options{SyncEvery: -1, SegmentBytes: 128 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Register("w"); err != nil {
		b.Fatal(err)
	}
	e := event.EncodeRaw(event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 9.5).
		Int("volume", 100).Payload(make([]byte, 256)).ID(1).Build())
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		for i := 0; i < backlog; i++ {
			if _, _, err := st.Append("w", e); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		n, err := st.Replay("w", func(*event.Raw) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if n != backlog {
			b.Fatalf("replayed %d, want %d", n, backlog)
		}
	}
	b.ReportMetric(backlog, "events/op")
}

// BenchmarkOverlayThroughput measures end-to-end events/sec through the
// concurrent goroutine overlay with 64 subscribers.
func BenchmarkOverlayThroughput(b *testing.B) {
	sys, err := New(Options{Fanouts: []int{1, 4, 16}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Advertise("Stock", "symbol", "price"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		_, err := sys.Subscribe(fmt.Sprintf("s%d", i),
			fmt.Sprintf(`class = "Stock" && symbol = "S%d"`, i%16),
			func(*Event) {})
		if err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for b.Loop() {
		e := NewEvent("Stock").Str("symbol", fmt.Sprintf("S%d", rng.IntN(32))).
			Float("price", rng.Float64()*100).Build()
		if err := sys.Publish(e); err != nil {
			b.Fatal(err)
		}
	}
	sys.Flush()
}

// BenchmarkOverlayBatchThroughput measures end-to-end events/sec through
// the batched publish pipeline: indexed matching at every broker, 512
// subscribers, publishes coalesced into batches of up to 256 as the
// actors drain their mailboxes.
func BenchmarkOverlayBatchThroughput(b *testing.B) {
	sys, err := New(Options{
		Fanouts:  []int{1, 4, 16},
		Seed:     1,
		MaxBatch: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Advertise("Stock", "symbol", "price"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		_, err := sys.Subscribe(fmt.Sprintf("s%d", i),
			fmt.Sprintf(`class = "Stock" && symbol = "S%d"`, i%64),
			func(*Event) {})
		if err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for b.Loop() {
		e := NewEvent("Stock").Str("symbol", fmt.Sprintf("S%d", rng.IntN(128))).
			Float("price", rng.Float64()*100).Build()
		if err := sys.Publish(e); err != nil {
			b.Fatal(err)
		}
	}
	sys.Flush()
	b.StopTimer()
	// Report the achieved coalescing at the root broker.
	for _, st := range sys.Stats() {
		if st.Stage == 3 && st.BatchesMatched > 0 {
			b.ReportMetric(float64(st.BatchSizeSum)/float64(st.BatchesMatched), "avgbatch")
		}
	}
}

// BenchmarkMeshRouting measures event routing through the
// non-hierarchical peer-to-peer configuration (§4 footnote 1): a random
// 32-broker tree with 128 subscriptions.
func BenchmarkMeshRouting(b *testing.B) {
	var ads typing.AdvertisementSet
	ad, err := typing.NewAdvertisement("Biblio", 4, "year", "conference", "author", "title")
	if err != nil {
		b.Fatal(err)
	}
	if err := ads.Put(ad); err != nil {
		b.Fatal(err)
	}
	m := mesh.New(mesh.Config{Ads: &ads, MaxStage: 3})
	rng := rand.New(rand.NewPCG(5, 5))
	ids := make([]mesh.BrokerID, 32)
	for i := range ids {
		ids[i] = mesh.BrokerID(fmt.Sprintf("B%d", i))
		if err := m.AddBroker(ids[i]); err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			if err := m.Connect(ids[i], ids[rng.IntN(i)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	bib, err := workload.NewBiblio(5, workload.DefaultBiblio())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if err := m.Subscribe(ids[rng.IntN(len(ids))], fmt.Sprintf("s%d", i),
			bib.Subscription(0.1, true)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := m.Publish(ids[rng.IntN(len(ids))], bib.Event()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.StoredFilters()), "filters")
}

// BenchmarkSubscriptionPlacement measures the Figure 5 placement walk.
func BenchmarkSubscriptionPlacement(b *testing.B) {
	cfg := sim.DefaultConfig(1, 2000, 1)
	// Subscription placement dominates this configuration: 2000
	// placements, one event.
	b.ResetTimer()
	for b.Loop() {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2000, "placements/op")
}
