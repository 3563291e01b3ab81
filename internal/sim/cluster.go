package sim

import (
	"fmt"
	"sort"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/metrics"
	"eventsys/internal/partition"
	"eventsys/internal/peering"
	"eventsys/internal/routing"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
	"eventsys/internal/workload"
)

// This file is the discrete-event cluster simulator: simulated broker
// processes wrapping the real routing.Node (local matching), peering.Core
// (federation routing) and flow.Queue (delivery and link queues), joined
// by simulated links with latency/bandwidth/loss and driven by the
// virtual-clock scheduler in clock.go. The same seed yields bit-identical
// delivery traces and digests; see docs/ARCHITECTURE.md ("Simulation").

// Topology is a connected broker graph. Cycles are allowed: like the
// live mesh, the simulator elects a deterministic spanning forest over
// the configured edges (Kruskal over (min, max)-sorted edges), routes
// only across elected edges, and holds the redundant edges as standby
// failover paths that promote when an elected link dies.
type Topology struct {
	// Brokers is the broker count; brokers are numbered 0..Brokers-1.
	Brokers int
	// Edges are the undirected peer links.
	Edges [][2]int
}

// Chain returns a line topology 0–1–…–n-1.
func Chain(n int) Topology {
	t := Topology{Brokers: n}
	for i := 1; i < n; i++ {
		t.Edges = append(t.Edges, [2]int{i - 1, i})
	}
	return t
}

// Star returns a hub-and-spoke topology with broker 0 as the hub.
func Star(n int) Topology {
	t := Topology{Brokers: n}
	for i := 1; i < n; i++ {
		t.Edges = append(t.Edges, [2]int{0, i})
	}
	return t
}

// Tree returns a complete k-ary tree over n brokers (0 the root).
func Tree(n, fanout int) Topology {
	t := Topology{Brokers: n}
	for i := 1; i < n; i++ {
		t.Edges = append(t.Edges, [2]int{(i - 1) / fanout, i})
	}
	return t
}

// Ring returns a cycle topology 0–1–…–n-1–0 (n ≥ 3): the minimal
// redundant mesh. The election holds one edge standby, so any single
// broker death leaves a path between every surviving pair.
func Ring(n int) Topology {
	t := Chain(n)
	if n >= 3 {
		t.Edges = append(t.Edges, [2]int{0, n - 1})
	}
	return t
}

// RandomTree draws a uniform random recursive tree over n brokers from
// the topology RNG stream: broker i attaches to a uniform earlier broker.
// Arbitrary acyclic meshes, not just the paper hierarchy.
func RandomTree(n int, streams *Streams) Topology {
	t := Topology{Brokers: n}
	for i := 1; i < n; i++ {
		t.Edges = append(t.Edges, [2]int{streams.Topology.IntN(i), i})
	}
	return t
}

func (t Topology) validate() error {
	if t.Brokers <= 0 {
		return fmt.Errorf("sim: topology needs brokers, got %d", t.Brokers)
	}
	// Union-find connectivity. Cycles are fine — redundant edges become
	// standby failover paths — but the graph must be connected, edges
	// must be real pairs, and no pair may be configured twice (a double
	// edge would alias one link's queues and spool).
	parent := make([]int, t.Brokers)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	seen := make(map[[2]int]bool, len(t.Edges))
	for _, e := range t.Edges {
		if e[0] < 0 || e[0] >= t.Brokers || e[1] < 0 || e[1] >= t.Brokers || e[0] == e[1] {
			return fmt.Errorf("sim: bad edge %v", e)
		}
		k := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if seen[k] {
			return fmt.Errorf("sim: duplicate edge %v", e)
		}
		seen[k] = true
		parent[find(e[0])] = find(e[1])
	}
	for i := 1; i < t.Brokers; i++ {
		if find(i) != find(0) {
			return fmt.Errorf("sim: topology is disconnected (broker %d unreachable from 0)", i)
		}
	}
	return nil
}

// LinkProfile shapes every simulated link.
type LinkProfile struct {
	// LatencyUS is the one-way propagation delay in virtual microseconds
	// (default 30).
	LatencyUS int64
	// TxUS is the per-frame serialization time — the bandwidth model: a
	// link transmits one frame per TxUS and queues behind it (default 1).
	TxUS int64
	// Loss is the probability one transmission attempt is lost. The link
	// is reliable like TCP: a lost attempt is retransmitted after
	// RetransUS, costing delay, never data or order. Draws come from the
	// network RNG stream, and only when Loss > 0 — lossless scenarios
	// never consume it.
	Loss float64
	// RetransUS is the added delay per lost attempt (default
	// 2*LatencyUS + TxUS, a retransmit timeout).
	RetransUS int64
}

func (p LinkProfile) withDefaults() LinkProfile {
	if p.LatencyUS <= 0 {
		p.LatencyUS = 30
	}
	if p.TxUS <= 0 {
		p.TxUS = 1
	}
	if p.RetransUS <= 0 {
		p.RetransUS = 2*p.LatencyUS + p.TxUS
	}
	return p
}

// ClusterConfig parameterizes one cluster simulation run.
type ClusterConfig struct {
	// Seed derives every RNG stream (see Streams).
	Seed uint64
	// Topology is the broker graph.
	Topology Topology
	// Link shapes every link.
	Link LinkProfile
	// Workload generates the client op stream.
	Workload workload.ClusterConfig
	// Faults is the failure schedule.
	Faults []Fault
	// Policy and Window govern every event queue (per-subscriber delivery
	// queues and per-link outbound queues). Window defaults to 64.
	Policy flow.Policy
	Window int
	// ConsumeUS is a subscriber's per-event consumption time (default 20).
	ConsumeUS int64
	// ProcUS is a broker's per-event service time: each broker processes
	// one event (local publish or arriving frame) per ProcUS of virtual
	// time, serialized — the CPU model that makes a single broker a
	// bottleneck and a partitioned replica group scale. 0 processes
	// inline with no service time (every pre-existing scenario), leaving
	// those digests untouched.
	ProcUS int64
	// Partitions, when > 0, shards the event key space: the brokers form
	// one replica group under a rendezvous-hashed partition map (the same
	// internal/partition map live brokers derive from the link-state
	// database) and every publish executes at its partition's owner —
	// the simulator's mirror of partition-aware publisher fan-in. 0 keeps
	// the PublishAt/Home placement.
	Partitions int
	// MaxStage clamps hop-distance weakening of federation interests
	// (0 = full filters propagate everywhere).
	MaxStage int
	// PublishAt pins every publish to one broker (-1 = hash the client).
	PublishAt int
	// SubscribeAt pins every subscription to one broker (-1 = hash).
	SubscribeAt int
	// Home optionally maps a client to its home broker when the
	// corresponding pin is -1, replacing the default client-hash
	// placement. Must be a pure function for determinism.
	Home func(client uint64, brokers int) int
	// Oracle tracks the exact expected delivery set per subscriber and
	// verifies it at the end: duplicate-free, loss-free, in publish
	// order. Valid only for scenarios whose control plane quiesces before
	// publishing (no churn) and whose policy is lossless (Block or
	// SpillToStore), with a single publish broker for a total order.
	Oracle bool
}

// Ledger is the simulation's conservation accounting. The copy ledger
// counts per-subscriber event copies from the moment the home broker's
// matching engine selects the subscriber; the frame ledger counts
// broker-to-broker event frames. The invariant the tests pin:
//
//	Copies == Delivered + EdgeFiltered + Dropped + Stored
//
// where Stored is the backlog still queued, spilled, or blocked upstream
// when the run ends (nonzero only under unhealed faults or stalls).
type Ledger struct {
	// Published counts publish ops executed at an up broker.
	Published uint64
	// Copies counts subscriber copies enqueued toward delivery queues.
	Copies uint64
	// Delivered counts copies consumed by subscriber handlers.
	Delivered uint64
	// EdgeFiltered counts copies the subscriber runtime's perfect filter
	// rejected (broker-side matching is stage-weakened, like the live
	// edge).
	EdgeFiltered uint64
	// Dropped counts copies discarded: by queue policy, or with a crashed
	// broker's RAM.
	Dropped uint64
	// Stored counts copies still undelivered at the end of the run.
	Stored uint64
	// Frames counts event frames handed to links; FrameArrived those
	// processed by the receiving broker; FrameSpooled those that went
	// through a durable link spool; FrameDropped those a link queue's
	// policy discarded; FrameLost those destroyed with a crashed broker's
	// RAM; FramePending those still spooled or queued at the end.
	Frames       uint64
	FrameArrived uint64
	FrameSpooled uint64
	FrameDropped uint64
	FrameLost    uint64
	FramePending uint64
	// DeferredOps counts client ops that waited for a crashed home broker
	// to restart.
	DeferredOps uint64
}

// Conserved reports whether the copy ledger balances.
func (l Ledger) Conserved() bool {
	return l.Copies == l.Delivered+l.EdgeFiltered+l.Dropped+l.Stored
}

// BrokerSimStats is one simulated broker's final accounting.
type BrokerSimStats struct {
	ID       int
	Up       bool
	Received uint64 // event frames + local publishes processed
	Sent     uint64 // event frames handed to links
	Lost     uint64 // frames destroyed with this broker's RAM at a crash
	Spooled  uint64 // frames that transited this broker's durable spools
	Pending  uint64 // frames still spooled/queued at the end
	Filters  int    // federation filter count (locals + interests)
}

// ClusterResult is the outcome of one cluster simulation.
type ClusterResult struct {
	// Digest is the seed-stable SHA-256 over the ordered delivery trace,
	// the ledger, and per-broker stats — the regression unit.
	Digest Digest
	// DigestLines is the number of hashed lines (trace length guard).
	DigestLines uint64
	// Ledger is the conservation accounting.
	Ledger Ledger
	// Brokers is the per-broker accounting.
	Brokers []BrokerSimStats
	// VirtualUS is the final virtual clock; Events the scheduler events
	// run; Wall the host time the run took.
	VirtualUS int64
	Events    uint64
	Wall      time.Duration
	// Oracle verification (Oracle configs only): copies a subscriber
	// should have received but did not, copies it should not have
	// received, duplicate deliveries, and out-of-order deliveries.
	OracleMissing, OracleExtra, Duplicates, OrderViolations int
	// Failovers counts election-driven dead-link handoffs; Rerouted the
	// orphaned spool frames re-routed onto promoted standby links; HealUS
	// the virtual time from the first failover mark to the last completed
	// handoff (0 when no failover ran).
	Failovers uint64
	Rerouted  uint64
	HealUS    int64
	// LatencyP50US and LatencyP99US are delivery-latency percentiles in
	// virtual microseconds: publish to handler consumption, over every
	// delivered copy. Reported, never hashed into the digest — the trace
	// already pins delivery times line by line.
	LatencyP50US int64
	LatencyP99US int64
}

// AggregateRate returns the cluster's aggregate processing rate in
// events per virtual second: every event a broker processed (local
// publishes plus arriving forwarded frames, summed across brokers)
// divided by the run's virtual duration — the scaling metric of the
// partitioned-scale scenario.
func (r *ClusterResult) AggregateRate() float64 {
	if r.VirtualUS <= 0 {
		return 0
	}
	var n uint64
	for _, b := range r.Brokers {
		n += b.Received
	}
	return float64(n) * 1e6 / float64(r.VirtualUS)
}

// --- simulated broker and link state ---

type frameKind uint8

const (
	frEvent frameKind = iota
	frUpdate
	frResync
)

type linkFrame struct {
	kind    frameKind
	ev      *event.Event
	entry   peering.Entry
	entries []peering.Entry
}

// outLink is one direction of a peer link: the sender-side queues and
// the wire model. ctrl is the priority control channel (never dropped,
// like the live writer's control lane); q is the policy-governed event
// queue; spool is the durable FIFO that survives the sender's crash;
// blocked holds Block-policy overflow (RAM, upstream backpressure).
// epoch invalidates scheduled transmissions and arrivals when the link
// goes down; down marks this direction severed until the re-establish.
type outLink struct {
	from, to  int
	epoch     uint64
	down      bool
	busyUntil int64
	pumping   bool
	ctrl      []linkFrame
	q         *flow.Queue[linkFrame]
	blocked   []linkFrame
	spool     []linkFrame
	inflight  []linkFrame
}

type simSub struct {
	id       string
	broker   int
	orig     *filter.Filter
	stored   *filter.Filter // node-side weakened form, for unsubscribe
	q        *flow.Queue[*event.Event]
	backlog  []*event.Event // durable spill backlog (FIFO behind q)
	waiting  []*event.Event // Block-policy overflow (RAM)
	consume  bool           // a consume tick is scheduled
	stallTil int64
}

type simBroker struct {
	id      int
	up      bool
	node    *routing.Node
	fed     *peering.Core
	peers   []int // sorted neighbor ids
	out     map[int]*outLink
	locals  map[string]*simSub // durable registry: clients re-attach on restart
	persist map[peering.LinkID][]peering.Entry

	// Control-plane state mirroring the live broker's election. active
	// marks elected (traffic-carrying) links and, like the persisted peer
	// state on disk, survives a crash — a restarted broker routes replayed
	// traffic over its pre-crash elected links until the next election.
	// pending marks promoted links whose resync has not landed; promoted
	// the standby→active transitions of the in-progress election round;
	// failover dead links awaiting the make-before-break spool handoff.
	// The last three are RAM: a crash clears them.
	active   map[int]bool
	pending  map[int]bool
	promoted map[int]bool
	failover map[int]bool

	counters *metrics.Counters
	deferred []workload.Op

	// procBusy is the broker's CPU horizon under the ProcUS service-time
	// model: the next admitted event starts processing no earlier.
	procBusy int64

	received, sent, lost, spooled uint64
}

type clusterSim struct {
	cfg     ClusterConfig
	sched   scheduler
	streams *Streams
	ads     *typing.AdvertisementSet
	brokers []*simBroker
	subs    map[string]*simSub
	dw      *digestWriter
	ledger  Ledger
	// failover accounting: election-driven dead-link handoffs, frames
	// re-routed from orphaned spools onto promoted links, and the virtual
	// time from the first failover mark to the last completed handoff.
	failovers uint64
	rerouted  uint64
	healStart int64
	healUS    int64
	// partition placement (Partitions > 0): the rendezvous map over the
	// broker set and the partition → broker-index table derived from it.
	pmap      *partition.Map
	partOwner []int
	// delivery-latency accounting: publish time per event ID, and one
	// latency sample per delivered copy.
	pubAt map[uint64]int64
	lats  []int64
	// oracle state
	expected map[string][]uint64
	got      map[string][]uint64
	base     time.Time
}

// RunCluster executes one cluster simulation.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	start := time.Now()
	s, gen, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	s.scheduleFaults()
	s.scheduleNextOp(gen)
	for s.sched.step() {
	}
	return s.finish(start), nil
}

func buildCluster(cfg ClusterConfig) (*clusterSim, *workload.Cluster, error) {
	if err := cfg.Topology.validate(); err != nil {
		return nil, nil, err
	}
	cfg.Link = cfg.Link.withDefaults()
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.ConsumeUS <= 0 {
		cfg.ConsumeUS = 20
	}
	streams := NewStreams(cfg.Seed)
	gen, err := workload.NewCluster(streams.WorkloadSeed, cfg.Workload)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range cfg.Faults {
		if err := f.validate(cfg.Topology.Brokers, cfg.Topology.Edges); err != nil {
			return nil, nil, err
		}
	}
	// The Tick advertisement with three stages: stage 0 perfect, stage 1
	// keeps the topic, stage 2+ class only — the broker-side weakening of
	// the live edge. MaxStage clamps how far federation interests weaken.
	ad, err := gen.Advertisement(3)
	if err != nil {
		return nil, nil, err
	}
	ads := &typing.AdvertisementSet{}
	if err := ads.Put(ad); err != nil {
		return nil, nil, err
	}
	s := &clusterSim{
		cfg:       cfg,
		streams:   streams,
		ads:       ads,
		subs:      make(map[string]*simSub),
		dw:        newDigestWriter(),
		pubAt:     make(map[uint64]int64),
		healStart: -1,
		base:      time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	if cfg.Partitions > 0 {
		// The replica group is the whole broker set, under the same
		// rendezvous map the live brokers derive from their link-state
		// database — so the simulated placement is the placement the live
		// partition-aware publisher computes.
		reps := make([]partition.Replica, cfg.Topology.Brokers)
		for i := range reps {
			id := fmt.Sprintf("B%d", i)
			reps[i] = partition.Replica{ID: id, Addr: id}
		}
		s.pmap = partition.New(cfg.Partitions, reps)
		s.partOwner = make([]int, cfg.Partitions)
		for p := range s.partOwner {
			s.partOwner[p] = brokerOf(peering.LinkID(s.pmap.Owner(p).ID))
		}
	}
	if cfg.Oracle {
		s.expected = make(map[string][]uint64)
		s.got = make(map[string][]uint64)
	}
	neighbors := make([][]int, cfg.Topology.Brokers)
	for _, e := range cfg.Topology.Edges {
		neighbors[e[0]] = append(neighbors[e[0]], e[1])
		neighbors[e[1]] = append(neighbors[e[1]], e[0])
	}
	for i := 0; i < cfg.Topology.Brokers; i++ {
		sort.Ints(neighbors[i])
		b := &simBroker{
			id:       i,
			up:       true,
			peers:    neighbors[i],
			out:      make(map[int]*outLink),
			locals:   make(map[string]*simSub),
			persist:  make(map[peering.LinkID][]peering.Entry),
			active:   make(map[int]bool),
			pending:  make(map[int]bool),
			promoted: make(map[int]bool),
			failover: make(map[int]bool),
		}
		b.counters = &metrics.Counters{}
		s.initBrokerState(b)
		for _, n := range b.peers {
			b.out[n] = s.newOutLink(i, n)
		}
		s.brokers = append(s.brokers, b)
	}
	// Initial election: flags only, no frames — the elected links start
	// active, cycle edges start standby. On a tree every edge is elected,
	// which is exactly the pre-election default.
	want := s.electForest()
	for _, b := range s.brokers {
		for _, n := range b.peers {
			b.active[n] = want[b.id][n]
			b.fed.SetActive(linkID(n), want[b.id][n])
		}
	}
	return s, gen, nil
}

// initBrokerState builds the RAM state a broker loses in a crash: the
// routing node and the federation core (links registered in sorted
// neighbor order for deterministic MatchLinks iteration).
func (s *clusterSim) initBrokerState(b *simBroker) {
	b.node = routing.NewNode(routing.Config{
		ID:       routing.NodeID(fmt.Sprintf("B%d", b.id)),
		Stage:    1,
		Weakener: weaken.New(s.ads, nil),
		Counters: b.counters,
	})
	b.fed = peering.New(peering.Config{
		Ads:      s.ads,
		MaxStage: s.cfg.MaxStage,
		Counters: b.counters,
	})
	for _, n := range b.peers {
		b.fed.AddLink(linkID(n))
	}
}

func (s *clusterSim) newOutLink(from, to int) *outLink {
	l := &outLink{from: from, to: to}
	l.q = flow.New(flow.Config[linkFrame]{
		Window: s.cfg.Window,
		Policy: s.cfg.Policy,
		Spill: func(fr linkFrame) bool {
			l.spool = append(l.spool, fr)
			s.brokers[from].spooled++
			s.ledger.FrameSpooled++
			return true
		},
		OnDrop: func(linkFrame) { s.ledger.FrameDropped++ },
	})
	return l
}

func linkID(broker int) peering.LinkID {
	return peering.LinkID(fmt.Sprintf("B%d", broker))
}

func (s *clusterSim) vtime() time.Time {
	return s.base.Add(time.Duration(s.sched.now) * time.Microsecond)
}

func (s *clusterSim) brokerFor(client uint64, pinned int) int {
	if pinned >= 0 {
		return pinned
	}
	if s.cfg.Home != nil {
		return s.cfg.Home(client, len(s.brokers))
	}
	return int(client % uint64(len(s.brokers)))
}

// --- client operations ---

// scheduleNextOp streams the workload: one pending op event at a time,
// so memory scales with live state, never with the op count.
func (s *clusterSim) scheduleNextOp(gen *workload.Cluster) {
	op, ok := gen.Next()
	if !ok {
		return
	}
	s.sched.schedule(op.Time, kindOp, func() {
		s.applyOp(op)
		s.scheduleNextOp(gen)
	})
}

func (s *clusterSim) applyOp(op workload.Op) {
	pin := s.cfg.SubscribeAt
	if op.Kind == workload.OpPublish {
		pin = s.cfg.PublishAt
	}
	b := s.brokers[s.brokerFor(op.Client, pin)]
	if op.Kind == workload.OpPublish && s.pmap != nil {
		// Partitioned deployment: the publisher fans the event directly to
		// its partition's owner, whatever broker the client is homed at.
		b = s.brokers[s.partOwner[s.pmap.PartitionOf(partition.KeyOf(op.Event))]]
	}
	if !b.up {
		// The client's home broker is down: the client retries after the
		// restart (deterministically, in arrival order).
		b.deferred = append(b.deferred, op)
		s.ledger.DeferredOps++
		return
	}
	switch op.Kind {
	case workload.OpSubscribe:
		s.subscribe(b, op.SubID, op.Filter)
	case workload.OpUnsubscribe:
		s.unsubscribe(op.SubID)
	case workload.OpPublish:
		s.publish(b, op.Event)
	}
}

func (s *clusterSim) subscribe(b *simBroker, subID string, f *filter.Filter) {
	if _, dup := s.subs[subID]; dup {
		return
	}
	sub := &simSub{id: subID, broker: b.id, orig: f}
	sub.q = flow.New(flow.Config[*event.Event]{
		Window: s.cfg.Window,
		Policy: s.cfg.Policy,
		Spill: func(e *event.Event) bool {
			sub.backlog = append(sub.backlog, e)
			return true
		},
		OnDrop: func(*event.Event) { s.ledger.Dropped++ },
	})
	s.subs[subID] = sub
	b.locals[subID] = sub
	s.attach(b, sub)
	s.fanUpdates(b, b.fed.Subscribe(subID, f))
}

// attach registers the subscription with the broker's RAM matching state
// (also used to re-attach surviving clients after a restart).
func (s *clusterSim) attach(b *simBroker, sub *simSub) {
	res := b.node.HandleSubscribe(sub.orig, routing.NodeID(sub.id), s.streams.Placement, s.vtime())
	if res.Action != routing.ActionAccept {
		panic("sim: stage-1 node did not accept a subscription")
	}
	sub.stored = res.Stored
}

func (s *clusterSim) unsubscribe(subID string) {
	sub, ok := s.subs[subID]
	if !ok {
		return
	}
	delete(s.subs, subID)
	b := s.brokers[sub.broker]
	delete(b.locals, subID)
	if b.up {
		b.node.HandleUnsubscribe(sub.stored, routing.NodeID(subID))
		b.fed.Unsubscribe(subID)
	}
	// Undelivered copies go with the subscription: counted, conserved.
	s.ledger.Dropped += s.drainSub(sub)
}

func (s *clusterSim) drainSub(sub *simSub) uint64 {
	var n uint64
	for {
		if _, ok := sub.q.TryPop(); !ok {
			break
		}
		n++
	}
	n += uint64(len(sub.backlog) + len(sub.waiting))
	sub.backlog, sub.waiting = nil, nil
	return n
}

func (s *clusterSim) publish(b *simBroker, e *event.Event) {
	s.ledger.Published++
	if s.expected != nil {
		// Oracle: every live subscription whose original filter matches
		// must receive this event exactly once, in publish order.
		ids := make([]string, 0, 8)
		for id, sub := range s.subs {
			if sub.orig.Matches(e, nil) {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			s.expected[id] = append(s.expected[id], e.ID)
		}
	}
	s.pubAt[e.ID] = s.sched.now
	s.ingest(b, e, "")
}

// ingest admits one event to a broker's CPU. Without a service-time
// model it processes inline (the pre-existing behavior, digest-
// identical); with ProcUS > 0 the broker serializes: each event occupies
// the CPU for ProcUS of virtual time and later arrivals queue behind
// the horizon. An event queued at a broker that crashes before its
// service slot is simply not processed — its copies were never offered,
// so the ledgers stay balanced.
func (s *clusterSim) ingest(b *simBroker, e *event.Event, from peering.LinkID) {
	if s.cfg.ProcUS <= 0 {
		s.processEvent(b, e, from)
		return
	}
	at := s.sched.now
	if b.procBusy > at {
		at = b.procBusy
	}
	b.procBusy = at + s.cfg.ProcUS
	s.sched.schedule(b.procBusy, kindDrain, func() {
		if b.up {
			s.processEvent(b, e, from)
		}
	})
}

// processEvent is a broker's event plane: forward on matching active
// federation links (reverse-path over the elected forest, so loop-free
// even when the configured mesh has cycles), match locals through the
// routing node, and enqueue subscriber copies under the flow policy.
func (s *clusterSim) processEvent(b *simBroker, e *event.Event, from peering.LinkID) {
	b.received++
	for _, lid := range b.fed.MatchLinks(e, from) {
		s.sendFrame(b, lid, linkFrame{kind: frEvent, ev: e})
	}
	for _, id := range b.node.HandleEvent(e) {
		sub, ok := b.locals[string(id)]
		if !ok {
			continue // lease raced an unsubscribe; nothing to deliver to
		}
		s.offerCopy(sub)
		s.enqueueCopy(sub, e)
	}
}

func (s *clusterSim) offerCopy(sub *simSub) { s.ledger.Copies++ }

func (s *clusterSim) enqueueCopy(sub *simSub, e *event.Event) {
	// FIFO rule: once a backlog exists, new copies append behind it —
	// whatever the policy, reordering is never an option (the live
	// broker's routeToSubscriber does the same).
	if len(sub.backlog) > 0 && s.cfg.Policy == flow.SpillToStore {
		sub.backlog = append(sub.backlog, e)
		s.startConsume(sub)
		return
	}
	if len(sub.waiting) > 0 {
		sub.waiting = append(sub.waiting, e)
		s.startConsume(sub)
		return
	}
	switch sub.q.Offer(e) {
	case flow.Enqueued, flow.Spilled:
		s.startConsume(sub)
	case flow.WouldBlock:
		// Block policy: the producer chain stalls; the copy waits
		// upstream and re-enters the queue as the consumer drains.
		sub.waiting = append(sub.waiting, e)
		s.startConsume(sub)
	case flow.Dropped:
		// Counted by OnDrop.
	case flow.Stopped:
		s.ledger.Dropped++
	}
}

// --- subscriber consumption ---

func (s *clusterSim) startConsume(sub *simSub) {
	if sub.consume {
		return
	}
	sub.consume = true
	at := s.sched.now
	if sub.stallTil > at {
		at = sub.stallTil
	}
	s.sched.schedule(at+s.cfg.ConsumeUS, kindDrain, func() { s.consumeTick(sub) })
}

func (s *clusterSim) consumeTick(sub *simSub) {
	sub.consume = false
	if _, live := s.subs[sub.id]; !live {
		return
	}
	if sub.stallTil > s.sched.now {
		// Stalled mid-schedule: resume when the stall heals.
		s.startConsume(sub)
		return
	}
	if sub.q.Len() == 0 && len(sub.backlog) > 0 {
		sub.q.TryPush(sub.backlog[0])
		sub.backlog = sub.backlog[1:]
	}
	e, ok := sub.q.TryPop()
	if !ok {
		return
	}
	// The subscriber runtime's perfect filter: broker-side matching is
	// stage-weakened, the edge re-checks the original (Figure 3's
	// end-to-end stage, exactly like the live DialSubscriber path).
	if sub.orig.Matches(e, nil) {
		s.ledger.Delivered++
		s.dw.delivery(s.sched.now, sub.id, e.ID)
		if at, ok := s.pubAt[e.ID]; ok {
			s.lats = append(s.lats, s.sched.now-at)
		}
		if s.got != nil {
			s.got[sub.id] = append(s.got[sub.id], e.ID)
		}
	} else {
		s.ledger.EdgeFiltered++
	}
	// Refill from the blocked producers, then keep draining.
	for len(sub.waiting) > 0 && sub.q.TryPush(sub.waiting[0]) {
		sub.waiting = sub.waiting[1:]
	}
	if sub.q.Len() > 0 || len(sub.backlog) > 0 || len(sub.waiting) > 0 {
		s.startConsume(sub)
	}
}

// --- control plane ---

func (s *clusterSim) fanUpdates(b *simBroker, ups []peering.Update) {
	for _, u := range ups {
		to := brokerOf(u.Link)
		if !s.linkUp(b.id, to) {
			continue // the resync on reconnect repairs subscription state
		}
		s.sendCtrl(b.out[to], linkFrame{kind: frUpdate, entry: u.Entry})
	}
}

func (s *clusterSim) sendCtrl(l *outLink, fr linkFrame) {
	l.ctrl = append(l.ctrl, fr)
	s.pump(l)
}

func brokerOf(id peering.LinkID) int {
	var n int
	fmt.Sscanf(string(id), "B%d", &n)
	return n
}

// --- spanning-forest election ---
//
// The live broker runs the election per node over a flooded link-state
// database; the simulator models the converged view — every broker sees
// the same live-edge set, so the global recompute below is what each
// broker's local recompute converges to, without simulating LSA frames.

// electForest returns, per broker, the set of neighbors its elected
// forest edges connect it to: Kruskal with union-find over the live
// edges (both endpoints up, neither direction severed) sorted by
// (min, max) broker id — the deterministic order every live broker uses.
func (s *clusterSim) electForest() []map[int]bool {
	edges := make([][2]int, 0, len(s.cfg.Topology.Edges))
	for _, e := range s.cfg.Topology.Edges {
		a, b := min(e[0], e[1]), max(e[0], e[1])
		if s.linkUp(a, b) {
			edges = append(edges, [2]int{a, b})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	parent := make([]int, len(s.brokers))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	want := make([]map[int]bool, len(s.brokers))
	for i := range want {
		want[i] = make(map[int]bool)
	}
	for _, e := range edges {
		a, b := find(e[0]), find(e[1])
		if a == b {
			continue // cycle edge: stays a standby failover path
		}
		parent[a] = b
		want[e[0]][e[1]] = true
		want[e[1]][e[0]] = true
	}
	return want
}

// recompute reconciles every up broker's links against the elected
// forest, mirroring the live recomputeTopology two-pass structure: a
// live link the forest wants promotes (activate, resync, make-before-
// break bookkeeping); a live active link the forest dropped demotes to
// standby (interests withdrawn); then — only after every promotion of
// the round is known — a dead active link the forest dropped enters
// failover when a promoted replacement exists. With no replacement it
// stays active and spooling, awaiting reconnect: the original durable-
// link semantics, which keeps every tree topology's behavior (and
// digest) untouched.
func (s *clusterSim) recompute() {
	want := s.electForest()
	for _, b := range s.brokers {
		if !b.up {
			continue
		}
		// A pending resync whose link died can never land: drop it so
		// failover completion is not gated on it.
		for n := range b.pending {
			if !s.linkUp(b.id, n) {
				delete(b.pending, n)
			}
		}
		for _, n := range b.peers {
			switch {
			case want[b.id][n] && !b.active[n] && s.linkUp(b.id, n):
				// Promotion: activate, then resync so the peer learns the
				// interests this link now carries. Reconnect resyncs of
				// already-active links ride bringUp instead, so promotion
				// here is always a genuine standby→active transition.
				b.active[n] = true
				b.fed.SetActive(linkID(n), true)
				entries := b.fed.Sync(linkID(n))
				s.sendCtrl(b.out[n], linkFrame{kind: frResync, entries: entries})
				b.pending[n] = true
				b.promoted[n] = true
			case b.active[n] && !want[b.id][n] && s.linkUp(b.id, n):
				// Healthy demotion: withdraw the interests so no new
				// traffic matches; frames already queued or spooled still
				// drain over the live connection.
				s.fanUpdates(b, b.fed.Replace(linkID(n), nil))
				b.fed.SetActive(linkID(n), false)
				b.active[n] = false
			}
		}
		for _, n := range b.peers {
			if b.active[n] && !want[b.id][n] && !s.linkUp(b.id, n) &&
				!b.failover[n] && len(b.promoted) > 0 {
				b.failover[n] = true
				s.failovers++
				if s.healStart < 0 {
					s.healStart = s.sched.now
				}
			}
		}
		s.maybeCompleteFailover(b)
	}
}

// maybeCompleteFailover finishes a broker's failover once every promoted
// link's resync has landed: each dead link's orphaned spool drains in
// order, every event re-matching against the promoted links only — they
// carried no interests before their resync, so nothing was double-routed
// — and events no promoted path wants stay spooled awaiting the original
// peer's return. Atomic with the resync arrival (one scheduler event),
// so no window exists where both the dead and the promoted link match.
func (s *clusterSim) maybeCompleteFailover(b *simBroker) {
	for n := range b.promoted {
		if b.pending[n] {
			return
		}
	}
	var failed, targets []int
	for _, n := range b.peers {
		if b.failover[n] {
			failed = append(failed, n)
		}
		if b.promoted[n] && b.active[n] && s.linkUp(b.id, n) {
			targets = append(targets, n)
		}
	}
	if len(failed) == 0 {
		clear(b.promoted)
		return
	}
	for _, n := range failed {
		l := b.out[n]
		var keep []linkFrame
		for _, fr := range l.spool {
			if fr.kind != frEvent {
				keep = append(keep, fr)
				continue
			}
			routed := false
			for _, t := range targets {
				if b.fed.MatchLink(fr.ev, linkID(t)) {
					if routed {
						// Fan-out beyond the first target is a fresh frame;
						// the first reuses the orphan's original accounting.
						s.ledger.Frames++
						b.sent++
					}
					s.enqueueFrame(b, t, fr)
					routed = true
				}
			}
			if routed {
				s.rerouted++
			} else {
				keep = append(keep, fr)
			}
		}
		l.spool = keep
		b.failover[n] = false
		s.fanUpdates(b, b.fed.Replace(linkID(n), nil))
		b.fed.SetActive(linkID(n), false)
		b.active[n] = false
	}
	s.healUS = s.sched.now - s.healStart
	clear(b.promoted)
}

// --- link transmission ---

// linkUp reports whether the connection between two brokers is
// established: both endpoints alive and neither direction severed.
func (s *clusterSim) linkUp(a, b int) bool {
	return s.brokers[a].up && s.brokers[b].up &&
		!s.brokers[a].out[b].down && !s.brokers[b].out[a].down
}

// sendFrame hands an event frame to a directed link under the flow
// policy. A down link, or one still replaying its spool, spools the
// frame durably (FIFO); an up link offers it to the bounded queue.
func (s *clusterSim) sendFrame(b *simBroker, lid peering.LinkID, fr linkFrame) {
	to := brokerOf(lid)
	s.ledger.Frames++
	b.sent++
	s.enqueueFrame(b, to, fr)
}

// enqueueFrame admits a frame to a directed link without the send
// accounting — the failover reroute path uses it directly, because a
// rerouted orphan was already counted when it was first sent.
func (s *clusterSim) enqueueFrame(b *simBroker, to int, fr linkFrame) {
	l := b.out[to]
	if !s.linkUp(b.id, to) || len(l.spool) > 0 {
		l.spool = append(l.spool, fr)
		b.spooled++
		s.ledger.FrameSpooled++
		return
	}
	switch l.q.Offer(fr) {
	case flow.Enqueued, flow.Spilled:
		s.pump(l)
	case flow.WouldBlock:
		l.blocked = append(l.blocked, fr)
	case flow.Dropped, flow.Stopped:
		// Counted by OnDrop.
	}
}

// pump schedules the link's next transmission if it is idle and has work.
func (s *clusterSim) pump(l *outLink) {
	if l.pumping || !s.linkUp(l.from, l.to) {
		return
	}
	if len(l.ctrl) == 0 && l.q.Len() == 0 && len(l.spool) == 0 {
		return
	}
	l.pumping = true
	at := s.sched.now
	if l.busyUntil > at {
		at = l.busyUntil
	}
	epoch := l.epoch
	s.sched.schedule(at, kindDrain, func() { s.transmit(l, epoch) })
}

// transmit serializes one frame onto the wire: control lane first, then
// the event queue (older traffic), then the spool replay.
func (s *clusterSim) transmit(l *outLink, epoch uint64) {
	l.pumping = false
	if epoch != l.epoch || !s.linkUp(l.from, l.to) {
		return
	}
	var fr linkFrame
	switch {
	case len(l.ctrl) > 0:
		fr, l.ctrl = l.ctrl[0], l.ctrl[1:]
	default:
		var ok bool
		if fr, ok = l.q.TryPop(); ok {
			// A slot freed: admit one blocked producer, keeping order.
			if len(l.blocked) > 0 && l.q.TryPush(l.blocked[0]) {
				l.blocked = l.blocked[1:]
			}
		} else if len(l.spool) > 0 {
			fr, l.spool = l.spool[0], l.spool[1:]
		} else {
			return
		}
	}
	p := s.cfg.Link
	tx := p.TxUS
	if p.Loss > 0 {
		// Reliable-link retransmission: each lost attempt costs RetransUS.
		for s.streams.Network.Float64() < p.Loss {
			tx += p.RetransUS
		}
	}
	depart := s.sched.now
	l.busyUntil = depart + tx
	arrival := l.busyUntil + p.LatencyUS
	l.inflight = append(l.inflight, fr)
	epoch = l.epoch
	s.sched.schedule(arrival, kindFrame, func() { s.arrive(l, epoch) })
	s.pump(l)
}

func (s *clusterSim) arrive(l *outLink, epoch uint64) {
	if epoch != l.epoch {
		return // the link went down in flight; the frame was salvaged
	}
	fr := l.inflight[0]
	l.inflight = l.inflight[1:]
	b := s.brokers[l.to]
	from := linkID(l.from)
	switch fr.kind {
	case frEvent:
		s.ledger.FrameArrived++
		s.ingest(b, fr.ev, from)
	case frUpdate:
		s.fanUpdates(b, b.fed.Apply(from, fr.entry))
	case frResync:
		s.fanUpdates(b, b.fed.Replace(from, fr.entries))
		// A promoted link's resync landing is what failover completion
		// waits for: the re-routing below this point sees the promoted
		// path's real interests, installed by the Replace above.
		if b.pending[l.from] {
			delete(b.pending, l.from)
			s.maybeCompleteFailover(b)
		}
	}
}

// --- failure injector ---

func (s *clusterSim) scheduleFaults() {
	for _, f := range s.cfg.Faults {
		f := f
		s.sched.schedule(f.At, kindFault, func() { s.inject(f) })
		if f.Duration > 0 && f.Kind != FaultStall {
			s.sched.schedule(f.At+f.Duration, kindFault, func() { s.heal(f) })
		}
	}
}

func (s *clusterSim) inject(f Fault) {
	switch f.Kind {
	case FaultCrash:
		s.crash(s.brokers[f.Broker])
		s.recompute()
	case FaultPartition:
		s.takeDown(f.Link[0], f.Link[1])
		s.takeDown(f.Link[1], f.Link[0])
		s.recompute()
	case FaultStall:
		s.stall(f)
	}
}

func (s *clusterSim) heal(f Fault) {
	switch f.Kind {
	case FaultCrash:
		s.restart(s.brokers[f.Broker])
	case FaultPartition:
		s.bringUp(f.Link[0], f.Link[1])
		s.bringUp(f.Link[1], f.Link[0])
		s.recompute()
	}
}

func (s *clusterSim) stall(f Fault) {
	ids := make([]string, 0, len(s.subs))
	for id := range s.subs {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids)
	i := f.Sub
	if i < 0 {
		i = s.streams.Faults.IntN(len(ids))
	}
	sub := s.subs[ids[i%len(ids)]]
	til := s.sched.now + f.Duration
	if til > sub.stallTil {
		sub.stallTil = til
	}
}

// crash kills a broker: its RAM — matching tables, federation interests,
// link queues, subscriber delivery queues — is gone; the durable link
// spools, the persisted per-link interest snapshots, and the local
// subscription registry (clients re-attach on restart) survive.
func (s *clusterSim) crash(b *simBroker) {
	if !b.up {
		return
	}
	// Persist the per-link learned interests (the live broker writes
	// DataDir/peers continuously; the crash snapshot is the last state).
	for _, n := range b.peers {
		b.persist[linkID(n)] = b.fed.Entries(linkID(n))
	}
	// Die first: takeDown's salvage is for surviving senders, and a
	// crashed broker's RAM outbound queues are not among the survivors.
	b.up = false
	b.node, b.fed = nil, nil
	for _, n := range b.peers {
		s.takeDown(b.id, n) // b's side: sever; RAM destroyed below
		s.takeDown(n, b.id) // neighbor's side: salvage into its spool
	}
	// RAM queue contents die with the process (the durable spool stays).
	for _, n := range b.peers {
		l := b.out[n]
		var ramFrames uint64
		for _, fr := range append(append([]linkFrame{}, l.blocked...), l.inflight...) {
			if fr.kind == frEvent {
				ramFrames++
			}
		}
		for {
			fr, ok := l.q.TryPop()
			if !ok {
				break
			}
			if fr.kind == frEvent {
				ramFrames++
			}
		}
		l.blocked, l.inflight, l.ctrl = nil, nil, nil
		b.lost += ramFrames
		s.ledger.FrameLost += ramFrames
	}
	ids := make([]string, 0, len(b.locals))
	for id := range b.locals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.ledger.Dropped += s.drainSub(b.locals[id])
	}
	// Election RAM dies with the process; the active map survives like
	// the persisted peer state it mirrors.
	b.pending = make(map[int]bool)
	b.promoted = make(map[int]bool)
	b.failover = make(map[int]bool)
}

// restart brings a broker back: RAM state is rebuilt, persisted interests
// reload so replayed events route onward before any resync lands, local
// clients re-attach, and every link re-establishes with a SubSet resync
// followed by the spool replay.
func (s *clusterSim) restart(b *simBroker) {
	if b.up {
		return
	}
	b.up = true
	s.initBrokerState(b)
	for _, n := range b.peers {
		// Restore the persisted activation mirror: links the pre-crash
		// election held standby must not match replayed traffic.
		if !b.active[n] {
			b.fed.SetActive(linkID(n), false)
		}
		if ent := b.persist[linkID(n)]; len(ent) > 0 {
			// Recovered interests route events; onward propagation is the
			// resyncs' job, so the returned updates are discarded.
			b.fed.Replace(linkID(n), ent)
		}
	}
	ids := make([]string, 0, len(b.locals))
	for id := range b.locals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sub := b.locals[id]
		s.attach(b, sub)
		b.fed.Subscribe(id, sub.orig) // propagation via the resyncs below
	}
	for _, n := range b.peers {
		s.bringUp(b.id, n)
		s.bringUp(n, b.id)
	}
	// Re-elect now that the broker is back: on a tree this is a no-op;
	// on a redundant mesh it restores the canonical forest, promoting the
	// returned links and demoting the failover paths back to standby.
	s.recompute()
	ops := b.deferred
	b.deferred = nil
	for _, op := range ops {
		op := op
		s.sched.schedule(s.sched.now, kindOp, func() { s.applyOp(op) })
	}
}

// takeDown severs one link direction: in-flight frames (the reliable
// transport's unacked window) and the RAM queues salvage into the
// durable spool, in order, when the sender survives; control frames are
// discarded — the resync on reconnect rebuilds subscription state.
func (s *clusterSim) takeDown(from, to int) {
	b := s.brokers[from]
	l := b.out[to]
	l.epoch++
	l.down = true
	l.pumping = false
	if !b.up {
		return
	}
	salvage := make([]linkFrame, 0, len(l.inflight))
	for _, fr := range l.inflight {
		if fr.kind == frEvent {
			salvage = append(salvage, fr)
		}
	}
	l.inflight = nil
	for {
		fr, ok := l.q.TryPop()
		if !ok {
			break
		}
		if fr.kind == frEvent {
			salvage = append(salvage, fr)
		}
	}
	salvage = append(salvage, l.blocked...)
	l.blocked, l.ctrl = nil, nil
	if len(salvage) > 0 {
		b.spooled += uint64(len(salvage))
		s.ledger.FrameSpooled += uint64(len(salvage))
		l.spool = append(l.spool, salvage...)
	}
}

// bringUp re-establishes one link direction: the sender recomputes the
// link's full SubSet (resync) ahead of the spool replay and new traffic.
func (s *clusterSim) bringUp(from, to int) {
	if !s.brokers[from].up || !s.brokers[to].up {
		return
	}
	b := s.brokers[from]
	l := b.out[to]
	if !l.down {
		return
	}
	l.down = false
	if l.busyUntil < s.sched.now {
		l.busyUntil = s.sched.now
	}
	// Only an active link resyncs on reconnect; a standby (or demoted-
	// during-failover) link carries nothing until the election promotes
	// it, and the promotion sends its own resync.
	if b.active[to] {
		entries := b.fed.Sync(linkID(to))
		l.ctrl = append(l.ctrl, linkFrame{kind: frResync, entries: entries})
	}
	// The connection is established once both directions come up;
	// bringUp runs in pairs, so the second call starts both pumps.
	if s.linkUp(from, to) {
		s.pump(l)
		s.pump(s.brokers[to].out[from])
	}
}

// --- result assembly ---

func (s *clusterSim) finish(start time.Time) *ClusterResult {
	res := &ClusterResult{
		Ledger:    s.ledger,
		VirtualUS: s.sched.now,
		Events:    s.sched.ran,
		Failovers: s.failovers,
		Rerouted:  s.rerouted,
		HealUS:    s.healUS,
	}
	// Residuals: copies and frames still parked when the run ends.
	subIDs := make([]string, 0, len(s.subs))
	for id := range s.subs {
		subIDs = append(subIDs, id)
	}
	sort.Strings(subIDs)
	for _, id := range subIDs {
		sub := s.subs[id]
		res.Ledger.Stored += uint64(sub.q.Len() + len(sub.backlog) + len(sub.waiting))
	}
	for _, b := range s.brokers {
		var pending uint64
		for _, n := range b.peers {
			l := b.out[n]
			pending += uint64(len(l.spool) + l.q.Len() + len(l.blocked))
			for _, fr := range l.inflight {
				if fr.kind == frEvent {
					pending++
				}
			}
		}
		filters := 0
		if b.up {
			filters = b.fed.FilterCount()
		}
		res.Ledger.FramePending += pending
		res.Brokers = append(res.Brokers, BrokerSimStats{
			ID: b.id, Up: b.up,
			Received: b.received, Sent: b.sent, Lost: b.lost,
			Spooled: b.spooled, Pending: pending, Filters: filters,
		})
	}
	if s.expected != nil {
		s.verifyOracle(res)
	}
	// Delivery-latency percentiles: reported beside the digest, never part
	// of it — the hashed trace pins each delivery's time already.
	if len(s.lats) > 0 {
		sort.Slice(s.lats, func(i, j int) bool { return s.lats[i] < s.lats[j] })
		res.LatencyP50US = s.lats[len(s.lats)*50/100]
		res.LatencyP99US = s.lats[len(s.lats)*99/100]
	}
	// Hash the summary behind the delivery trace: the ledger and the
	// per-broker counters are part of the regression surface.
	l := res.Ledger
	s.dw.line("ledger pub=%d copies=%d deliv=%d edge=%d drop=%d stored=%d frames=%d arrived=%d spool=%d fdrop=%d flost=%d fpend=%d defer=%d",
		l.Published, l.Copies, l.Delivered, l.EdgeFiltered, l.Dropped, l.Stored,
		l.Frames, l.FrameArrived, l.FrameSpooled, l.FrameDropped, l.FrameLost,
		l.FramePending, l.DeferredOps)
	for _, bs := range res.Brokers {
		s.dw.line("broker %d up=%t recv=%d sent=%d lost=%d spooled=%d pending=%d filters=%d",
			bs.ID, bs.Up, bs.Received, bs.Sent, bs.Lost, bs.Spooled, bs.Pending, bs.Filters)
	}
	// Failover accounting joins the digest only when a failover ran, so
	// every pre-existing scenario's digest stays byte-identical.
	if s.failovers > 0 {
		s.dw.line("failover count=%d rerouted=%d heal_us=%d", s.failovers, s.rerouted, s.healUS)
	}
	res.Digest = s.dw.sum()
	res.DigestLines = s.dw.lines
	res.Wall = time.Since(start)
	return res
}

// verifyOracle compares each subscriber's deliveries with the expected
// sequence: equal means loss-free, duplicate-free, in publish order.
func (s *clusterSim) verifyOracle(res *ClusterResult) {
	ids := make(map[string]bool, len(s.expected)+len(s.got))
	for id := range s.expected {
		ids[id] = true
	}
	for id := range s.got {
		ids[id] = true
	}
	for id := range ids {
		want, got := s.expected[id], s.got[id]
		seen := make(map[uint64]int, len(got))
		for _, ev := range got {
			seen[ev]++
		}
		for _, n := range seen {
			if n > 1 {
				res.Duplicates += n - 1
			}
		}
		wantSet := make(map[uint64]bool, len(want))
		for _, ev := range want {
			wantSet[ev] = true
			if seen[ev] == 0 {
				res.OracleMissing++
			}
		}
		for ev := range seen {
			if !wantSet[ev] {
				res.OracleExtra += seen[ev]
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				res.OrderViolations++
			}
		}
	}
}
