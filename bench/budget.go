package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/index"
	"eventsys/internal/peering"
	"eventsys/internal/routing"
	"eventsys/internal/store"
	"eventsys/internal/transport"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
)

// The budget pass replays the workload's own events and subscriptions
// through each layer's public functions, on one goroutine, one span per
// call. A call that a layer makes inside another layer's function
// (ParseRaw inside ReadFrame, the index inside HandleEventBatch) cannot
// be spanned from outside, so it is replayed on its own right after and
// attached as the outer span's child: the outer layer's self time then
// excludes it.

const (
	budgetEvents = 2048 // pool entries replayed
	budgetPop    = 2048 // cap on subscriptions replayed through per-subscription calls
)

// budget is the pass's outcome.
type budget struct {
	tr       *tracer
	overhead int64 // clock read carried by every measured span, ns
	med      map[string]float64
	path     []pathStep
}

// pathStep says how many times one delivered event pays a layer metric
// on its way from Publish to the handler.
type pathStep struct {
	metric string
	times  float64
}

// paths is each workload's route through the layers: what one delivered
// event waits for between Publish and its handler. Frames cross one
// socket per hop and are read once per socket; matching is paid once per
// broker, as a 64th of a batch of 64 where events arrive one to a frame.
var paths = map[string][]pathStep{
	"hop1-small": {
		{"event.encode_ns", 1}, {"transport.write_publish_ns", 1},
		{"transport.read_ns", 2}, {"event.parse_ns", 2}, {"flow.queue_ns", 2},
		{"peering.match_links_ns", 1}, {"routing.batch_ns", 1.0 / 64}, {"flow.gate_ns", 1},
		{"transport.write_deliver_ns", 1}, {"filter.perfect_ns", 1}, {"event.decode_ns", 1},
	},
	// A delivered alert waits for its whole batch: the 64 are encoded,
	// framed, read, parsed and matched as one before any is routed.
	"alerts-16k": {
		{"event.encode_ns", 64}, {"transport.write_batch_ns", 1},
		{"transport.read_ns", 2}, {"event.parse_ns", 65}, {"flow.queue_ns", 2},
		{"peering.match_links_ns", 64}, {"routing.batch_ns", 1}, {"flow.gate_ns", 1},
		{"transport.write_deliver_ns", 1}, {"filter.perfect_ns", 1}, {"event.decode_ns", 1},
	},
	"chain-3hop": {
		{"event.encode_ns", 1}, {"transport.write_publish_ns", 1},
		{"transport.read_ns", 4}, {"event.parse_ns", 4}, {"flow.queue_ns", 6},
		{"peering.match_links_ns", 3}, {"routing.batch_ns", 3.0 / 64}, {"flow.gate_ns", 3},
		{"transport.write_forward_ns", 2}, {"transport.write_deliver_ns", 1},
		{"filter.perfect_ns", 1}, {"event.decode_ns", 1},
	},
	"tree-durable": {
		{"event.encode_ns", 1}, {"transport.write_publish_ns", 2},
		{"transport.read_ns", 3}, {"event.parse_ns", 3}, {"flow.queue_ns", 4},
		{"peering.match_links_ns", 2}, {"routing.batch_ns", 2.0 / 64}, {"flow.gate_ns", 2},
		{"transport.write_deliver_ns", 1}, {"filter.perfect_ns", 1}, {"event.decode_ns", 1},
	},
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func runBudget(sp *spec, in *inputs, o options) (*budget, error) {
	tr := &tracer{spans: make([]span, 0, 16*budgetEvents)}
	bd := &budget{tr: tr, med: map[string]float64{}, path: paths[sp.name]}
	n := min(budgetEvents, in.regular) / batchSize * batchSize

	// Every measured span carries one clock read; empty spans size it.
	cal := &tracer{}
	for i := 0; i < 4096; i++ {
		cal.time("", -1, 0, func() {})
	}
	bd.overhead = median(cal.selfTimes(0))

	// The subscription population: every subscriber's filters, and the
	// largest single subscriber's (the per-ID scans grow with it).
	ads := &typing.AdvertisementSet{}
	for _, ad := range in.ads {
		if err := ads.Put(ad); err != nil {
			return nil, err
		}
	}
	type owned struct {
		id string
		f  *filter.Filter
	}
	var pop []owned
	var biggest subSpec
	for _, s := range in.subs {
		for _, f := range s.filters {
			pop = append(pop, owned{s.id, f})
		}
		if len(s.filters) > len(biggest.filters) {
			biggest = s
		}
	}
	federated := false
	for _, bs := range sp.brokers {
		federated = federated || len(bs.peers) > 0
	}
	perfect := in.subs[slices.IndexFunc(in.subs, func(s subSpec) bool { return s.kind == subClient })].filters[0]

	// Per-subscription calls.
	weak := weaken.New(ads, nil)
	node := routing.NewNode(routing.Config{ID: "budget", Stage: 1, Weakener: weak, Engine: index.Config{Kind: index.KindIndexed}})
	eng := index.New(index.Config{Kind: index.KindIndexed})
	rng := rand.New(rand.NewPCG(o.seed, 1))
	epoch := time.Now()
	proot := tr.add("population", -1, 0, now(), 0)
	for i, p := range pop {
		var stored *filter.Filter
		if i < budgetPop {
			tr.time("routing.subscribe", proot, 0, func() {
				stored = node.HandleSubscribe(p.f, routing.NodeID(p.id), rng, epoch).Stored
			})
			tr.time("weaken.filter", proot, 0, func() { weak.Filter(p.f, 1+i%2) })
			tr.time("filter.covers", proot, 0, func() { filter.Covers(pop[(i+1)%len(pop)].f, p.f, nil) })
		} else {
			stored = node.HandleSubscribe(p.f, routing.NodeID(p.id), rng, epoch).Stored
		}
		eng.Insert(stored, p.id)
	}
	core := peering.New(peering.Config{Ads: ads, MaxStage: sp.maxStage})
	up := peering.New(peering.Config{Ads: ads, MaxStage: sp.maxStage})
	if federated {
		core.AddLink("peer")
		up.AddLink("down")
	}
	for i, f := range biggest.filters {
		if i < len(biggest.filters)-64 { // the scan is per ID: time it at the full population
			core.Subscribe(biggest.id, f)
			continue
		}
		tr.time("peering.subscribe", proot, 0, func() { core.Subscribe(biggest.id, f) })
	}
	if federated {
		for _, p := range pop[:min(len(pop), budgetPop)] {
			tr.time("peering.apply", proot, 0, func() { up.Apply("down", peering.Entry{Filter: p.f, Hops: 2}) })
		}
	}
	for i := 0; i < 256; i++ {
		f := pop[i%len(pop)].f
		if len(in.churn) > 0 {
			f = in.churn[i%len(in.churn)]
		}
		tr.time("index.insert", proot, 0, func() { eng.Insert(f, "budget") })
		tr.time("index.remove", proot, 0, func() { eng.Remove(f, "budget") })
	}
	tr.spans[proot].End = now()

	// Per-event calls.
	var wire bytes.Buffer
	rd := bytes.NewReader(nil)
	fr := transport.NewFrameReader(rd)
	interner := event.NewInterner()
	q := flow.New(flow.Config[*event.Raw]{Window: flow.DefaultCreditWindow})
	gate := flow.NewGate()
	gate.Grant(flow.DefaultCreditWindow)
	raws := make([]*event.Raw, n)
	var wireBytes int
	for i := 0; i < n; i++ {
		e := in.events[i]
		e.ID = eventID(uint64(i+1), i)
		root := tr.add("event", -1, e.ID, now(), 0)
		var raw, got *event.Raw
		tr.time("event.encode", root, e.ID, func() { raw = event.EncodeRaw(e) })
		wire.Reset()
		tr.time("transport.write_publish", root, e.ID, func() { _ = transport.WriteFrame(&wire, transport.Publish{Event: raw}) })
		rd.Reset(wire.Bytes())
		var m transport.Message
		var err error
		read := tr.time("transport.read", root, e.ID, func() { m, err = fr.ReadFrame() })
		if err != nil {
			return nil, err
		}
		got = m.(transport.Publish).Event
		tr.time("event.parse", read, e.ID, func() { _, err = event.ParseRaw(got.Bytes(), interner) })
		if err != nil {
			return nil, err
		}
		tr.time("flow.queue", root, e.ID, func() { q.Push(got); q.Pop() })
		tr.time("peering.match_links", root, e.ID, func() { up.MatchLinks(got, "") })
		tr.time("index.match", root, e.ID, func() { eng.Match(got) })
		tr.time("flow.gate", root, e.ID, func() { gate.Acquire(1, nil, nil); gate.Grant(1) })
		wire.Reset()
		tr.time("transport.write_deliver", root, e.ID, func() { _ = transport.WriteFrame(&wire, transport.Deliver{Event: got}) })
		wire.Reset()
		tr.time("transport.write_forward", root, e.ID, func() { _ = transport.WriteFrame(&wire, transport.Forward{Event: got}) })
		tr.time("filter.perfect", root, e.ID, func() { perfect.Matches(got, nil) })
		tr.time("event.decode", root, e.ID, func() { got.Event() })
		tr.spans[root].End = now()
		raws[i] = got
		wireBytes += len(got.Bytes())
	}
	bd.med["event.wire_bytes"] = float64(wireBytes) / float64(n)

	// Per-batch calls.
	var st *store.Store
	var replayNS float64
	if sp.spill > 0 {
		dir, err := os.MkdirTemp(o.tmp, "budget-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir, store.Options{SyncEvery: -1}); err != nil {
			return nil, err
		}
		defer st.Close()
		if _, _, err = st.Register("budget"); err != nil {
			return nil, err
		}
	}
	views := make([]event.View, batchSize)
	for i := 0; i < n; i += batchSize {
		run := raws[i : i+batchSize]
		for j, r := range run {
			views[j] = r
		}
		id := run[0].EventID()
		root := tr.add("batch", -1, id, now(), 0)
		wire.Reset()
		tr.time("transport.write_batch", root, id, func() { _ = transport.WriteFrame(&wire, transport.PublishBatch{Events: run}) })
		match := tr.time("routing.batch", root, id, func() { node.HandleEventBatch(views) })
		tr.time("index.batch", match, id, func() { index.MatchEach(eng, views) })
		if st != nil {
			var err error
			tr.time("store.append", root, id, func() { _, _, err = st.AppendBatch("budget", run) })
			if err != nil {
				return nil, err
			}
		}
		tr.spans[root].End = now()
	}
	if st != nil {
		var err error
		replayed := 0
		i := tr.time("store.replay_all", -1, 0, func() {
			replayed, err = st.Replay("budget", func(*event.Raw) bool { return true })
		})
		if err != nil || replayed != n {
			return nil, fmt.Errorf("store replayed %d of %d events: %v", replayed, n, err)
		}
		replayNS = float64(tr.spans[i].End-tr.spans[i].Start-bd.overhead) / float64(n)
	}

	rtts, err := socketRTT(int(bd.med["event.wire_bytes"])+5, 2000)
	if err != nil {
		return nil, err
	}
	sroot := tr.add("socket", -1, 0, now(), 0)
	for _, iv := range rtts {
		tr.add("socket.rtt", sroot, 0, iv[0], iv[1])
	}
	tr.spans[sroot].End = now()

	// Allocation counts, taken apart from the spans so that the tracer's
	// own appends do not count.
	before := mallocs()
	for _, r := range raws {
		eng.Match(r)
	}
	bd.med["index.match_allocs"] = float64(mallocs()-before) / float64(n)
	frames := make([][]byte, n)
	for i, r := range raws {
		wire.Reset()
		_ = transport.WriteFrame(&wire, transport.Publish{Event: r})
		frames[i] = bytes.Clone(wire.Bytes())
	}
	before = mallocs()
	for _, f := range frames {
		rd.Reset(f)
		if _, err := fr.ReadFrame(); err != nil {
			return nil, err
		}
	}
	bd.med["transport.allocs_per_frame"] = float64(mallocs()-before) / float64(n)

	self := tr.byName(tr.selfTimes(bd.overhead))
	for name, vs := range self {
		bd.med[name+"_ns"] = float64(max(median(vs), 0))
	}
	// routing.batch's self time excludes the index; its own metric is
	// the whole call.
	var whole []int64
	for _, s := range tr.spans {
		if s.Name == "routing.batch" {
			whole = append(whole, s.End-s.Start-bd.overhead)
		}
	}
	bd.med["routing.self_ns"] = bd.med["routing.batch_ns"]
	bd.med["routing.batch_ns"] = float64(median(whole))
	bd.med["store.append_ns"] /= batchSize
	bd.med["store.replay_ns"] = replayNS
	return bd, nil
}

// socketRTT times n frame-sized round trips over a loopback TCP pair:
// this goroutine writes and reads back, another echoes. Not repo code:
// the floor under every hop.
func socketRTT(size, n int) ([][2]int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c) // until the dialer closes
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	out := make([][2]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := now()
		if _, err = c.Write(buf); err == nil {
			_, err = io.ReadFull(c, buf)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		out = append(out, [2]int64{t0, now()})
	}
	c.Close()
	return out, <-echoed
}

// metrics writes the layer medians and the budget: the sum of the layer
// self times along the workload's path against the measured median
// latency, and the share no layer owns.
func (bd *budget) metrics(rep *report) {
	for _, d := range perLayer {
		if v, ok := bd.med[d.name]; ok {
			rep.Values[d.name] = v
		} else if _, set := rep.Values[d.name]; !set {
			rep.Values[d.name] = 0
		}
	}
	sum := 0.0
	for _, st := range bd.path {
		sum += st.times * bd.med[st.metric] / 1e3
	}
	p50 := rep.Values["latency_p50_us"]
	rep.Values["budget.sum_us"] = sum
	rep.Values["budget.unexplained_us"] = p50 - sum
	rep.Values["budget.unexplained_ratio"] = (p50 - sum) / p50
	rep.Notes = append(rep.Notes, fmt.Sprintf("budget pass: %d spans, %d ns clock read taken off each", len(bd.tr.spans), bd.overhead))
}
