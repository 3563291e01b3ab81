package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/typing"
	"eventsys/internal/workload"
)

// idxBits is how many low bits of an event ID hold the event's pool
// index; the bits above hold the publish sequence number. A subscriber
// can then look any delivery up in the oracle from the ID alone, and IDs
// still rise with publish order.
const idxBits = 17

func eventID(seq uint64, idx int) uint64 { return seq<<idxBits | uint64(idx) }
func idxOf(id uint64) int                { return int(id & (1<<idxBits - 1)) }
func seqOf(id uint64) uint64             { return id >> idxBits }

// subKind says which client a subscriber runs.
type subKind int

const (
	// subClient is broker.DialSubscriber: placement walk, perfect
	// filtering, decode, handler.
	subClient subKind = iota
	// subSink is the bench-owned raw connection: many subscriptions
	// under one ID, no client-side filter, no decode.
	subSink
	// subDurable is a raw sink that the spill phase severs without
	// unsubscribing and the replay phase reconnects.
	subDurable
)

// subSpec is one subscriber connection and the filters it registers.
type subSpec struct {
	id      string
	kind    subKind
	at      int // index of the broker it dials
	filters []*filter.Filter
}

// inputs is everything a run feeds the brokers, generated from
// (workload, seed) before any timing.
type inputs struct {
	// events[:regular] is the event pool the phases cycle through;
	// events[regular:] are the sentinels, one matching event per
	// subscriber path, published to prove a backlog drained.
	events  []*event.Event
	regular int
	ads     []*typing.Advertisement
	subs    []subSpec
	// churn is the subscribe/unsubscribe stream of the churn connection.
	churn []*filter.Filter
}

// brokerSpec places one broker in the topology.
type brokerSpec struct {
	id      string
	stage   int
	parent  int   // index of the hierarchy parent, -1 for none
	peers   []int // federation peers this broker dials
	durable bool  // gets a DataDir
}

// spec is one workload. The constants are the issue's; none is a knob.
type spec struct {
	name, why string
	rate      int  // paced offered rate, events/s
	burst     int  // events due at each tick; tick = burst/rate
	batch     bool // one PublishBatch per burst, else Publish per event
	payload   int  // payload bytes; the first 8 hold the due time
	pool      int  // distinct pre-generated events
	sample    int  // sinks verify 1 in sample pool entries (1 = all)
	maxStage  int  // PeerMaxStage of every broker
	brokers   []brokerSpec
	spill     int // events published while the durable sink is away
	churnRate int // subscribe/unsubscribe pairs per second
	gen       func(rng *rand.Rand, sp *spec, scale int) (*inputs, error)
}

var specs = []*spec{
	{
		name: "hop1-small",
		why:  "bare forwarding at the smallest message: transport, flow and the broker core do all the work; index, store and peering none",
		rate: 20000, burst: 1, payload: 8, pool: 16384, sample: 1,
		brokers: []brokerSpec{{id: "b0", stage: 1, parent: -1}},
		gen:     genHop1,
	},
	{
		name: "alerts-16k",
		why:  "ingress-heavy, delivery-light: 16k subscriptions, batch frames, index and routing dominate, with subscribe churn beside the reads",
		rate: 10000, burst: 64, batch: true, payload: 8, pool: 65536, sample: 1024,
		brokers:   []brokerSpec{{id: "b0", stage: 1, parent: -1}},
		churnRate: 200,
		gen:       genAlerts,
	},
	{
		name: "chain-3hop",
		why:  "the federation path: three peer brokers, hop-weakened filters, Forward frames, a 256-byte payload",
		rate: 10000, burst: 1, payload: 256, pool: 16384, sample: 1, maxStage: 2,
		brokers: []brokerSpec{
			{id: "b0", stage: 1, parent: -1},
			{id: "b1", stage: 1, parent: -1, peers: []int{0}},
			{id: "b2", stage: 1, parent: -1, peers: []int{1}},
		},
		gen: genChain,
	},
	{
		name: "tree-durable",
		why:  "the paper's multi-stage hierarchy with a durable leaf: placement walk, per-stage weakening, and the only workload where the store works",
		rate: 10000, burst: 1, payload: 256, pool: 16384, sample: 1,
		brokers: []brokerSpec{
			{id: "b0", stage: 2, parent: -1},
			{id: "b1", stage: 1, parent: 0, durable: true},
		},
		spill: 200000,
		gen:   genTree,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// generate builds a workload's inputs. scale divides the populations
// (1 for a real run, 10 for -smoke).
func generate(sp *spec, seed uint64, scale int) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(sp.name))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	in, err := sp.gen(rng, sp, scale)
	if err != nil {
		return nil, err
	}
	if len(in.events) > 1<<idxBits {
		return nil, fmt.Errorf("%s: %d events exceed the %d-bit pool index", sp.name, len(in.events), idxBits)
	}
	return in, nil
}

// payload returns n random bytes; the harness overwrites the first 8
// with the due time at every publish.
func payload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.UintN(256))
	}
	return p
}

func genHop1(rng *rand.Rand, sp *spec, scale int) (*inputs, error) {
	in := &inputs{regular: sp.pool / scale}
	for i := 0; i <= in.regular; i++ { // the last one is the sentinel
		in.events = append(in.events, event.NewBuilder("Tick").
			Int("k", rng.Int64N(1000)).
			Float("v", rng.Float64()).
			Payload(payload(rng, sp.payload)).Build())
	}
	in.subs = []subSpec{{id: "all", kind: subClient, filters: []*filter.Filter{{Class: "Tick"}}}}
	return in, nil
}

const (
	alertSubs  = 16000
	alertSinks = 8
)

func genAlerts(rng *rand.Rand, sp *spec, scale int) (*inputs, error) {
	al, err := workload.NewAlerts(rng.Uint64(), workload.DefaultAlerts())
	if err != nil {
		return nil, err
	}
	in := &inputs{regular: sp.pool / scale}
	for i := 0; i < in.regular; i++ {
		e := al.Event()
		// The advertisement lists all four attributes, and a broker's
		// standard filter form requires every advertised attribute to
		// be present (Section 4.4), so the 99 % of events the generator
		// leaves without a note carry an empty one.
		if !e.Has("note") {
			e.Set("note", event.String(""))
		}
		e.Payload = payload(rng, sp.payload)
		in.events = append(in.events, e)
	}
	// The sentinel crosses no threshold and names no pooled metric: only
	// the canary and the sinks' sentinel subscriptions match it.
	in.events = append(in.events, event.NewBuilder("Alert").
		Str("metric", "sentinel").Float("value", 50).
		Str("topic", "m/r00/z00/h000").Str("note", "").
		Payload(payload(rng, sp.payload)).Build())

	ad, err := typing.NewAdvertisement("Alert", 2, "metric", "value", "topic", "note")
	if err != nil {
		return nil, err
	}
	ad.StageAttrs = []int{4, 4} // stage 1 keeps all four: no weakening on one broker
	in.ads = []*typing.Advertisement{ad}

	per := alertSubs / scale / alertSinks
	for k := 0; k < alertSinks; k++ {
		s := subSpec{id: fmt.Sprintf("sink%d", k), kind: subSink}
		for i := 0; i < per; i++ {
			s.filters = append(s.filters, al.Subscription())
		}
		s.filters = append(s.filters, filter.New("Alert",
			filter.C("metric", filter.OpEq, event.String("sentinel"))))
		in.subs = append(in.subs, s)
	}
	in.subs = append(in.subs, subSpec{id: "canary", kind: subClient, filters: []*filter.Filter{
		filter.New("Alert", filter.C("topic", filter.OpPrefix, event.String("m/r00/"))),
	}})
	// Churn filters name metrics outside the event pool, so they never
	// change the expected delivery set.
	for i := 0; i < 4096; i++ {
		in.churn = append(in.churn, filter.New("Alert",
			filter.C("metric", filter.OpEq, event.String(fmt.Sprintf("churn-%05d", rng.IntN(100000)))),
			filter.C("value", filter.OpGe, event.Float(90+10*rng.Float64()))))
	}
	return in, nil
}

const stockSymbols = 8

func symbol(k int) string { return fmt.Sprintf("S%d", k) }

// stockEvents draws the Stock traffic of the two multi-broker workloads
// and appends one sentinel per subscribed symbol.
func stockEvents(rng *rand.Rand, sp *spec, scale, subscribed int) *inputs {
	in := &inputs{regular: sp.pool / scale}
	for i := 0; i < in.regular; i++ {
		in.events = append(in.events, event.NewBuilder("Stock").
			Str("symbol", symbol(rng.IntN(stockSymbols))).
			Float("price", rng.Float64()*100).
			Payload(payload(rng, sp.payload)).Build())
	}
	for k := 0; k < subscribed; k++ {
		in.events = append(in.events, event.NewBuilder("Stock").
			Str("symbol", symbol(k)).Float("price", 0).
			Payload(payload(rng, sp.payload)).Build())
	}
	return in
}

func stockSubs(at, n int) []subSpec {
	var subs []subSpec
	for k := 0; k < n; k++ {
		subs = append(subs, subSpec{id: fmt.Sprintf("sub%d", k), kind: subClient, at: at, filters: []*filter.Filter{
			filter.New("Stock",
				filter.C("symbol", filter.OpEq, event.String(symbol(k))),
				filter.C("price", filter.OpLt, event.Float(50))),
		}})
	}
	return subs
}

func stockAd(stageAttrs ...int) *typing.Advertisement {
	return &typing.Advertisement{Class: "Stock", Attrs: []string{"symbol", "price"}, StageAttrs: stageAttrs}
}

func genChain(rng *rand.Rand, sp *spec, scale int) (*inputs, error) {
	in := stockEvents(rng, sp, scale, 4)
	// Every stage above the subscriber keeps only symbol: b0 and b1 hold
	// hop-weakened forms, b2's own table the stage-1 form, and the
	// client's perfect filter pays for the imprecision.
	in.ads = []*typing.Advertisement{stockAd(2, 1, 1)}
	in.subs = stockSubs(2, 4)
	return in, nil
}

func genTree(rng *rand.Rand, sp *spec, scale int) (*inputs, error) {
	in := stockEvents(rng, sp, scale, 4)
	// symbol, price at the leaf (stage 1), symbol at the root (stage 2).
	in.ads = []*typing.Advertisement{stockAd(2, 2, 1)}
	in.subs = stockSubs(0, 4)
	// The durable sink shares a symbol with sub3, so the root forwards no
	// extra share; price >= 0 matches all of that symbol without being a
	// wildcard, which would attach the subscription at the root.
	in.subs = append(in.subs, subSpec{id: "durable", kind: subDurable, filters: []*filter.Filter{
		filter.New("Stock",
			filter.C("symbol", filter.OpEq, event.String(symbol(3))),
			filter.C("price", filter.OpGe, event.Float(0))),
	}})
	return in, nil
}

// digest hashes the generated streams: event encodings, subscriptions in
// order, the churn list. Equal inputs give equal digests.
func (in *inputs) digest() string {
	h := sha256.New()
	var buf []byte
	for _, e := range in.events {
		buf = event.AppendEncoded(buf[:0], e)
		h.Write(buf)
	}
	for _, ad := range in.ads {
		fmt.Fprintln(h, ad.String())
	}
	for _, s := range in.subs {
		fmt.Fprintln(h, s.id, s.kind, s.at)
		for _, f := range s.filters {
			fmt.Fprintln(h, f.String())
		}
	}
	for _, f := range in.churn {
		fmt.Fprintln(h, f.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}
