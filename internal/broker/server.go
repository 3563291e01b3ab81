// Package broker implements the networked deployment of the multi-stage
// event system: each broker node is a TCP server owning a routing.Node
// core. Child brokers dial their parents (announcing their own listen
// address), publishers inject events at the root, and subscribers walk
// the Figure 5 placement protocol by following join-At redirects from
// broker to broker.
//
// Beyond the parent/child hierarchy, brokers federate as peers over an
// acyclic mesh (ServerConfig.Peers): each link exchanges hop-weakened
// subscription state with covering-based pruning (internal/peering, the
// same core the in-process mesh runs), and events follow the reverse
// paths as Forward/ForwardBatch frames. A lost peer link keeps its
// learned interests; matching events spill to the durable store while
// the link is down and replay in order on reconnect, after a SubSet
// resync. See peer.go.
//
// Concurrency model mirrors the in-process overlay: one core goroutine
// owns the routing state; a reader goroutine per connection feeds it; a
// writer goroutine per connection drains the connection's outbound
// queues. Each connection has two: a priority channel for control
// frames (replies, subscription state, leases, credit grants) and a
// flow.Queue for event frames governed by ServerConfig.FlowPolicy —
// Block (lossless backpressure, the default), DropNewest, DropOldest,
// or SpillToStore (persist overflow to the durable store and replay in
// order). The core inlet is a flow.Queue under the same policy.
//
// Flow control propagates across TCP hops with Credit/CreditAck frames:
// the broker grants event credits to publishers, parents and federation
// peers as its core processes their events, and its own writers acquire
// credit granted by children, subscribers and peers before transmitting
// event frames. A saturated broker therefore stops granting, its
// upstreams stop sending, and — under Block — the original publisher
// itself stalls instead of anything being dropped. Control frames are
// never gated or shed. With a DataDir, events for a saturated or
// disconnected subscriber are persisted to the durable store and
// replayed when the subscriber re-subscribes with the same ID — so a
// leaf broker's undelivered backlog survives even its own restart.
package broker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/index"
	"eventsys/internal/metrics"
	"eventsys/internal/obs"
	"eventsys/internal/peering"
	"eventsys/internal/routing"
	"eventsys/internal/store"
	"eventsys/internal/transport"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
)

// ServerConfig configures one broker process.
type ServerConfig struct {
	// ID is the broker's identity in the hierarchy (e.g. "N2.1").
	ID string
	// Stage is the broker's filtering stage (1 = leaf).
	Stage int
	// ListenAddr is the TCP address to listen on (":0" for ephemeral).
	ListenAddr string
	// ParentAddr is the parent broker's address; empty at the root.
	ParentAddr string
	// TTL is the lease period (Section 4.3); 0 disables expiry.
	TTL time.Duration
	// Registry resolves type conformance; nil = exact names.
	Registry *typing.Registry
	// Engine selects the matching engine. The zero value is the indexed
	// table; the naive Figure 6 table is a reference for tests.
	Engine index.Kind
	// MaxBatch caps how many queued publish events the core coalesces
	// into one matching pass (default 64; 1 disables coalescing).
	MaxBatch int
	// Seed drives placement randomness.
	Seed uint64
	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger
	// DataDir, when non-empty, roots a durable event store: events routed
	// to a disconnected (or saturated) subscriber are persisted instead
	// of dropped, survive a broker restart, and replay to the subscriber
	// when it reconnects with the same ID. Empty disables the store.
	DataDir string
	// SyncEvery is the store's fsync batching (see store.Options): 0 for
	// the default batch, 1 to fsync every append, negative to leave
	// syncing to the OS.
	SyncEvery int
	// StoreMaxBytes bounds the store's retained log; oldest segments are
	// evicted beyond it (0 = unbounded).
	StoreMaxBytes int64
	// Peers lists peer broker addresses to dial and keep dialed (with
	// reconnect) for mesh federation. Each edge is configured on exactly
	// one side — the other side only accepts — and the set is mutable at
	// runtime via AddPeer/RemovePeer/SetPeers. Cycles are allowed and
	// useful: the brokers elect a spanning tree over the links that are
	// up, and redundant edges stand by as failover paths that activate
	// when a broker or link dies.
	Peers []string
	// HeartbeatInterval paces PeerPing frames on federation links and the
	// dead-link scan (default 2s; negative disables heartbeats). TCP
	// resets already tear links down; the heartbeat catches the silent
	// failures — frozen processes, black-holed routes — that leave a
	// socket open but dead.
	HeartbeatInterval time.Duration
	// DeadLinkTimeout closes a federation link that has received no
	// frame for this long (default 4× HeartbeatInterval). Closing it
	// triggers the same reconnect-and-reelect path as a TCP reset.
	DeadLinkTimeout time.Duration
	// PeerMaxStage clamps hop-distance weakening of subscription state
	// propagated to peers (the mesh's MaxStage): a filter h hops from
	// its subscriber is stored in its stage-min(h, PeerMaxStage) form.
	// 0 propagates full filters (no weakening) — always exact, most
	// state.
	PeerMaxStage int
	// FlowPolicy selects the slow-consumer policy for event traffic at
	// the broker's bounded queues: the core inlet and every connection's
	// outbound event queue. flow.Block (the default) is lossless
	// end-to-end backpressure — a saturated queue stalls its producer,
	// and withheld credit grants carry the stall across TCP hops to the
	// publisher. flow.DropNewest / flow.DropOldest shed events at the
	// saturated queue (counted in NodeStats.Dropped). flow.SpillToStore
	// diverts overflow to the durable store (subscriber queues and peer
	// links with a DataDir; degrades to a counted drop without one, and
	// to Block at the inlet) and replays it in order. Control frames are
	// exempt from every policy.
	FlowPolicy flow.Policy
	// FlowWindow bounds each of those queues and sets the event credit
	// window granted to senders (default 1024).
	FlowWindow int
	// Obs, when non-nil, receives the broker's observability surfaces:
	// node counters (with reason-labeled drops), queue gauges, peer-link
	// and store families, hop-latency histograms, and a /debug/status
	// section. Several brokers may share one registry — every series
	// carries a node label.
	Obs *obs.Registry
	// Trace enables hop-level latency tracing: inbound events are
	// stamped on arrival and the match/forward/deliver stages record
	// elapsed-since-arrival histograms. Off (the default), the stamp
	// path is a single atomic load per frame.
	Trace bool
	// ReplicaOf names the replica group this broker belongs to for
	// partitioned scale-out. Brokers sharing a group (normally federated
	// as peers) derive a common partition map from the link-state
	// database — no coordination round — and redirect publishers toward
	// each event partition's owner. Empty disables partitioning.
	ReplicaOf string
	// Partitions is the partition count of the replica group's event
	// space (default 64 when ReplicaOf is set). Every replica in a group
	// must configure the same count: the map epoch hashes it, so a
	// mismatch shows up as disagreeing epochs rather than silent
	// misrouting.
	Partitions int
	// GroupLeaseTTL bounds how long a consumer-group member may hold an
	// unacknowledged delivery before the broker redelivers it to another
	// member (default 10s). Expiry runs on the TTL sweep tick, so it
	// needs cfg.TTL > 0; member disconnects redeliver immediately either
	// way.
	GroupLeaseTTL time.Duration
}

// Server is a running broker node.
type Server struct {
	cfg    ServerConfig
	log    *slog.Logger
	node   *routing.Node
	ads    *typing.AdvertisementSet
	rng    *rand.Rand
	store  *store.Store // nil without DataDir
	tracer *obs.Tracer

	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	inlet  *flow.Queue[coreEvent]
	parent *peerConn

	mu    sync.Mutex
	conns map[*peerConn]struct{}
	// retiredIO keeps the socket counters of connections that are gone,
	// so the broker's totals never step backwards (guarded by mu).
	retiredIO ConnIO

	// Control plane: the reconciler compares the intended peer set with
	// the running dial workers and starts/cancels workers to close the
	// gap (see control.go). intentMu guards both maps; reconcileCh (1-
	// buffered) wakes the reconciler after a mutation.
	intentMu    sync.Mutex
	intent      map[string]struct{}
	workers     map[string]*peerWorker
	reconcileCh chan struct{}
	reconciles  atomic.Uint64
	deadLinks   atomic.Uint64

	// stallLogNS rate-limits flow-stall logging: backpressure engaging
	// is operator-relevant, but a sustained stall fires OnStall per
	// push and must not flood the log.
	stallLogNS atomic.Int64

	// core-owned state (no locking needed):
	views     []event.View // reusable batch-matching scratch
	byID      map[routing.NodeID]*peerConn
	counters  *metrics.Counters
	fed       *peering.Core        // federation routing state
	peerLinks map[string]*peerLink // by peer broker ID
	// peerDirty marks links whose persisted interest set is stale; the
	// flusher goroutine rewrites them in batches instead of on every
	// incremental SubUpdate.
	peerDirty map[string]struct{}
	// topo is the link-state database driving the spanning-tree election
	// (see topology.go); pendingResync tracks promoted links whose
	// SubSet exchange is still in flight, and promoted the links
	// activated by the in-progress failover — the only legal re-routing
	// targets for a dead link's orphaned spool.
	topo          *peering.TopologyView
	pendingResync map[string]struct{}
	promoted      map[string]struct{}
	failovers     uint64
	reroutes      uint64
	// pmap is the partition-aware routing filter (see partition.go). The
	// core installs recomputed maps; stats and tests read it atomically.
	// With ReplicaOf unset it stays empty and every event is owned.
	pmap          *routing.PartitionFilter
	partRedirects uint64
	partAbsorbed  uint64
	// groups holds the consumer groups anchored at this broker, keyed by
	// their reserved routing ID ("@group/<name>"); groupOf maps each
	// member connection to its group (see group.go).
	groups  map[string]*consumerGroup
	groupOf map[*peerConn]*consumerGroup
}

type coreEvent struct {
	pc    *peerConn
	msg   transport.Message
	gone  bool
	tick  tickKind
	query chan int // ChildBrokers snapshot request
	call  func()   // generic core-context query (PeerStats etc.)
	// replay asks the core to try draining the connection's stored
	// backlog (posted when a credit grant frees the writer: without it,
	// events spilled at the tail of a burst would strand in the spool
	// until the next matching event or a reconnect).
	replay bool
}

type tickKind int

const (
	tickNone tickKind = iota
	tickRenew
	tickSweep
)

// evictableCoreEvent marks inlet items a drop policy may shed: inbound
// event frames only — connection lifecycle, queries, ticks and
// subscription control always survive saturation.
func evictableCoreEvent(ev coreEvent) bool { return coreEventCount(ev) > 0 }

// coreEventCount returns how many events an inlet item carries (the
// frame switch is eventCount's; control items carry none).
func coreEventCount(ev coreEvent) int {
	if ev.gone || ev.query != nil || ev.call != nil || ev.tick != tickNone || ev.replay || ev.msg == nil {
		return 0
	}
	return eventCount(ev.msg)
}

// DefaultMaxBatch is the default cap on events coalesced per matching
// pass in the broker core.
const DefaultMaxBatch = 64

// peerConn is one TCP connection with its outbound queues and credit
// state.
type peerConn struct {
	kind transport.PeerKind
	id   string
	addr string // child broker's advertised listen address

	// dialed marks connections this broker initiated (parent dials, peer
	// supervisors dial); link is the federation link once a PeerHello
	// names the peer (core-owned).
	dialed bool
	link   *peerLink

	c net.Conn
	// out carries event frames under the configured flow policy; ctl
	// carries control frames, which the writer drains with priority and
	// which no policy ever sheds.
	out *flow.Queue[transport.Message]
	ctl chan transport.Message
	// gate holds event credit granted by the remote end; the writer
	// acquires from it before transmitting event frames. Disabled (no
	// gating) until the remote's first Credit arrives.
	gate *flow.Gate
	// meter paces the credit this broker grants the remote; set on
	// connections the broker expects inbound events from (publishers,
	// the parent, federation peers). Atomic: the core installs it, but
	// repayment also happens from reader goroutines (inlet drops).
	meter atomic.Pointer[flow.Meter]
	// pendingGrant accumulates credit owed to the remote; the writer
	// flushes it as a Credit frame when it next touches the socket, so
	// granting never blocks the core — a remote that stops reading
	// wedges only its own connection.
	pendingGrant atomic.Int64
	grantSig     chan struct{} // 1-token: pendingGrant became non-zero
	// acked flips when the first Credit from the remote has been
	// answered with a CreditAck (readLoop-owned).
	acked bool
	// peerAcked reports the remote acknowledged our grants (stats).
	peerAcked atomic.Bool

	// lastRecv is the Nanotime of the most recent inbound frame; the
	// heartbeat loop closes federation links whose silence exceeds the
	// dead-link timeout.
	lastRecv atomic.Int64

	// redirEpoch is the partition-map epoch this connection was last sent
	// a PartitionRedirect for (core-owned): one redirect per epoch per
	// publisher, however many stale publishes it sends meanwhile.
	redirEpoch uint64

	// io counts the connection's socket crossings (see connstats.go).
	io connIO

	done chan struct{} // closed with the connection (supervisor redial cue)
	// writerDone is closed when the write loop exits; after that,
	// whatever remains in out was never written and can be salvaged.
	writerDone chan struct{}
	once       sync.Once
}

// ctlBuffer bounds each connection's control-frame channel. Control
// traffic is low-volume; the writer drains it ahead of events.
const ctlBuffer = 256

func (s *Server) newPeerConn(c net.Conn) *peerConn {
	pc := &peerConn{
		c:        c,
		ctl:      make(chan transport.Message, ctlBuffer),
		gate:     flow.NewGate(),
		grantSig: make(chan struct{}, 1),
		done:     make(chan struct{}), writerDone: make(chan struct{}),
	}
	pc.lastRecv.Store(obs.Nanotime())
	pc.out = flow.New(flow.Config[transport.Message]{
		Window: s.cfg.FlowWindow,
		Policy: s.cfg.FlowPolicy,
		Spill:  func(m transport.Message) bool { return s.spillConn(pc, m) },
		OnDrop: func(m transport.Message) { s.dropConn(pc, m) },
		OnStall: func() {
			s.counters.AddStalled(1)
			s.logStall("out/" + pc.id)
		},
		Stop:    pc.done,
		AltStop: s.ctx.Done(),
	})
	return pc
}

// tryCtl enqueues a control frame without blocking; a full channel (a
// wedged writer) refuses it — nothing on the broker ever blocks on one
// connection's control plane.
func (pc *peerConn) tryCtl(m transport.Message) bool {
	select {
	case pc.ctl <- m:
		return true
	default:
		return false
	}
}

// logStall logs a Block-policy stall — the operator-visible trace of
// end-to-end backpressure engaging — at most once per 5 seconds across
// all of the broker's queues; the per-queue stall counters carry the
// full picture.
func (s *Server) logStall(queue string) {
	now := obs.Nanotime()
	last := s.stallLogNS.Load()
	if now-last < int64(5*time.Second) || !s.stallLogNS.CompareAndSwap(last, now) {
		return
	}
	s.log.Warn("flow stall: backpressure engaged", "queue", queue)
}

// addGrant credits the remote with g events: the amount accumulates on
// the connection and the writer flushes it as one Credit frame when it
// next touches the socket. Never blocks, coalesces bursts, and loses
// nothing a live connection could still use — a torn-down connection's
// unsent grant dies with its sender state.
func (s *Server) addGrant(pc *peerConn, g int) {
	if g <= 0 {
		return
	}
	pc.pendingGrant.Add(int64(g))
	s.counters.AddCreditGranted(uint64(g))
	select {
	case pc.grantSig <- struct{}{}:
	default:
	}
}

// setIdentity records who a connection is. s.mu makes the identity
// readable off-core (FlowStats); the core itself reads it lock-free, as
// the single writer.
func (s *Server) setIdentity(pc *peerConn, kind transport.PeerKind, id, addr string) {
	s.mu.Lock()
	pc.kind, pc.id, pc.addr = kind, id, addr
	s.mu.Unlock()
}

// eventsOf returns the events an outbound frame carries (nil for
// control frames). Events stay in their raw wire form throughout.
func eventsOf(m transport.Message) []*event.Raw {
	switch f := m.(type) {
	case transport.Publish:
		return []*event.Raw{f.Event}
	case transport.PublishBatch:
		return f.Events
	case transport.Deliver:
		return []*event.Raw{f.Event}
	case transport.Forward:
		return []*event.Raw{f.Event}
	case transport.ForwardBatch:
		return f.Events
	}
	return nil
}

// eventCount returns how many event credits a frame costs.
func eventCount(m transport.Message) int {
	switch f := m.(type) {
	case transport.Publish, transport.Deliver, transport.Forward:
		return 1
	case transport.PublishBatch:
		return len(f.Events)
	case transport.ForwardBatch:
		return len(f.Events)
	}
	return 0
}

// spillConn is the outbound queue's SpillToStore hook: overflow for a
// durable subscriber or a federation peer link goes to the durable
// store under the connection's cursor, to replay in order later. It
// reports false (degrading the push to a counted drop) when the broker
// has no store or the connection has no durable identity. Runs in the
// core goroutine (only the core pushes event frames), so touching
// core-owned link state is safe.
func (s *Server) spillConn(pc *peerConn, m transport.Message) bool {
	evs := eventsOf(m)
	if len(evs) == 0 {
		return false
	}
	key := ""
	switch {
	case pc.link != nil:
		key = spoolKey(pc.link.id)
	case pc.kind == transport.PeerSubscriber && pc.id != "":
		key = pc.id
	default:
		return false // child brokers have no cursor: drop, counted
	}
	if !s.storeBatchFor(key, evs) {
		return false
	}
	s.counters.AddSpilled(uint64(len(evs)))
	if pc.link != nil {
		pc.link.spooled += uint64(len(evs))
	}
	return true
}

// dropConn counts the events a queue policy discarded — exactly once
// per event, whatever frame carried them. Runs in the core goroutine.
func (s *Server) dropConn(pc *peerConn, m transport.Message) {
	n := uint64(eventCount(m))
	if n == 0 {
		return
	}
	s.counters.AddDroppedFor(metrics.DropQueueFull, n)
	if pc.link != nil {
		pc.link.dropped += n
	}
	s.log.Warn("outbound queue full; dropping", "peer", pc.id, "events", n)
}

// Serve starts a broker and returns once it is listening.
func Serve(cfg ServerConfig) (*Server, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("broker: ID required")
	}
	if cfg.Stage < 1 {
		return nil, fmt.Errorf("broker: stage must be >= 1, got %d", cfg.Stage)
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("broker: listen %s: %w", cfg.ListenAddr, err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:       cfg,
		log:       logger.With("broker", cfg.ID, "stage", cfg.Stage),
		ads:       &typing.AdvertisementSet{},
		rng:       rand.New(rand.NewPCG(cfg.Seed, uint64(cfg.Stage))),
		ln:        ln,
		conns:     make(map[*peerConn]struct{}),
		byID:      make(map[routing.NodeID]*peerConn),
		peerLinks: make(map[string]*peerLink),
		peerDirty: make(map[string]struct{}),

		intent:        make(map[string]struct{}),
		workers:       make(map[string]*peerWorker),
		reconcileCh:   make(chan struct{}, 1),
		topo:          peering.NewTopologyView(cfg.ID),
		pendingResync: make(map[string]struct{}),
		promoted:      make(map[string]struct{}),
		pmap:          routing.NewPartitionFilter(cfg.ID),
		groups:        make(map[string]*consumerGroup),
		groupOf:       make(map[*peerConn]*consumerGroup),
	}
	if s.cfg.MaxBatch <= 0 {
		s.cfg.MaxBatch = DefaultMaxBatch
	}
	if s.cfg.GroupLeaseTTL <= 0 {
		s.cfg.GroupLeaseTTL = DefaultGroupLeaseTTL
	}
	if s.cfg.ReplicaOf != "" {
		if s.cfg.Partitions <= 0 {
			s.cfg.Partitions = DefaultPartitions
		}
		// The LSAs this broker floods carry its listen address and replica
		// group, so every converged broker derives the same map (see
		// partition.go). Seed the single-replica map before the core
		// starts: a lone replica owns everything under a real epoch.
		s.topo.SetSelf(s.Addr(), s.cfg.ReplicaOf)
		s.recomputePartitionMap()
	}
	if s.cfg.FlowWindow <= 0 {
		s.cfg.FlowWindow = flow.DefaultCreditWindow
	}
	var conf filter.Conformance = filter.ExactTypes{}
	if cfg.Registry != nil {
		conf = cfg.Registry
	}
	s.counters = &metrics.Counters{}
	s.tracer = obs.NewTracer()
	s.tracer.Enable(cfg.Trace)
	parentID := routing.NodeID("")
	if cfg.ParentAddr != "" {
		parentID = "parent" // real ID unknown until dial; only IsRoot matters
	}
	s.node = routing.NewNode(routing.Config{
		ID:       routing.NodeID(cfg.ID),
		Stage:    cfg.Stage,
		Parent:   parentID,
		TTL:      cfg.TTL,
		Conf:     conf,
		Weakener: weaken.New(s.ads, conf),
		Counters: s.counters,
		Engine:   index.Config{Kind: cfg.Engine, Conf: conf},
	})
	s.fed = peering.New(peering.Config{
		Conformance: conf,
		Ads:         s.ads,
		MaxStage:    cfg.PeerMaxStage,
		Counters:    s.counters,
	})
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, store.Options{SyncEvery: cfg.SyncEvery, MaxBytes: cfg.StoreMaxBytes, Logger: s.log})
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.store = st
		// Rebuild peer links (and their learned interests) persisted by a
		// previous incarnation, so events replayed by reconnecting peers
		// route onward even before every neighbor link is back up.
		if err := s.loadPeerState(); err != nil {
			s.log.Warn("peer state recovery failed", "err", err)
		}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// The core inlet runs the configured policy on publish traffic, with
	// SpillToStore degrading to Block: inlet events are not yet matched,
	// so there is no per-subscriber cursor to spill them under. Control
	// events (handshakes, queries, ticks) always enqueue.
	inletPolicy := s.cfg.FlowPolicy
	if inletPolicy == flow.SpillToStore {
		inletPolicy = flow.Block
	}
	s.inlet = flow.New(flow.Config[coreEvent]{
		Window:    s.cfg.FlowWindow,
		Policy:    inletPolicy,
		Evictable: evictableCoreEvent,
		OnDrop: func(ev coreEvent) {
			if n := coreEventCount(ev); n > 0 {
				s.counters.AddDroppedFor(metrics.DropInletShed, uint64(n))
				// A shed event is consumed all the same: repay its
				// credit, or drops would bleed the sender's window dry
				// and turn a shedding policy into a permanent stall.
				s.grantTo(ev.pc, n)
			}
		},
		OnStall: func() {
			s.counters.AddStalled(1)
			s.logStall("inlet")
		},
		Stop: s.ctx.Done(),
	})

	if cfg.ParentAddr != "" {
		pc, err := s.dialParent()
		if err != nil {
			ln.Close()
			if s.store != nil {
				_ = s.store.Close() // release the flock for the next attempt
			}
			return nil, err
		}
		s.parent = pc
	}

	s.wg.Add(2)
	go s.acceptLoop()
	go s.core()
	// The control plane owns the peer set from here on: cfg.Peers is just
	// the initial intent, mutable at runtime via AddPeer/RemovePeer.
	for _, addr := range cfg.Peers {
		s.intent[addr] = struct{}{}
	}
	s.wg.Add(1)
	go s.reconciler()
	s.kickReconcile()
	if hb := s.heartbeatEvery(); hb > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop(hb)
	}
	if s.store != nil {
		s.wg.Add(1)
		go s.peerStateFlusher()
	}
	if cfg.TTL > 0 {
		s.wg.Add(1)
		go s.ticker()
	}
	if cfg.Obs != nil {
		s.registerObs(cfg.Obs)
	}
	s.log.Info("broker listening", "addr", s.Addr())
	return s, nil
}

// Tracer returns the broker's hop-latency tracer (never nil).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// StoreStats snapshots the durable store's counters; the zero value
// without a DataDir.
func (s *Server) StoreStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// coreSnap wraps a read of core-owned state for the observability
// sources: it snapshots through the core with a deadline and serves the
// last good snapshot when the core is stalled — a Block-policy wedge
// must not take /metrics down with it.
func coreSnap[T any](read func() T) func() T {
	var mu sync.Mutex
	var last T
	return func() T {
		fresh := make(chan T, 1)
		go func() { fresh <- read() }()
		select {
		case v := <-fresh:
			mu.Lock()
			last = v
			mu.Unlock()
			return v
		case <-time.After(200 * time.Millisecond):
			mu.Lock()
			defer mu.Unlock()
			return last
		}
	}
}

// registerObs contributes the broker's metric and status sources to
// reg. Node, queue, store and hop-latency families read atomics and
// never block. Peer-link stats and the engine shape live in core-owned
// state, so those sources go through coreSnap.
func (s *Server) registerObs(reg *obs.Registry) {
	peerSnap := coreSnap(s.PeerStats)
	shapeSnap := coreSnap(s.EngineShape)
	reg.Register(func(w *obs.MetricWriter) {
		obs.CollectNodeStats(w, s.Stats())
		obs.CollectFlow(w, s.cfg.ID, s.FlowStats())
		s.collectConnIO(w)
		if s.store != nil {
			obs.CollectStore(w, s.cfg.ID, s.store.Stats())
		}
		s.tracer.Collect(w, "node", s.cfg.ID)
		for _, st := range peerSnap() {
			l := []string{"node", s.cfg.ID, "peer", st.Peer}
			up := 0.0
			if st.Up {
				up = 1
			}
			w.Gauge("eventsys_peer_link_up",
				"Whether the federation link is currently connected.", up, l...)
			w.Gauge("eventsys_peer_link_interests",
				"Interest filters learned from the peer.", float64(st.Interests), l...)
			w.Counter("eventsys_peer_link_sent_updates_total",
				"Subscription updates sent over the link.", float64(st.Sent), l...)
			w.Counter("eventsys_peer_link_forwarded_events_total",
				"Events forwarded to the peer.", float64(st.Forwards), l...)
			w.Counter("eventsys_peer_link_spooled_events_total",
				"Events spooled to the store while the link was down or saturated.",
				float64(st.Spooled), l...)
			w.Counter("eventsys_peer_link_dropped_events_total",
				"Events for the peer dropped (no store to spool to).", float64(st.Dropped), l...)
			w.Counter("eventsys_peer_link_resyncs_total",
				"Full SubSet resyncs on reconnect.", float64(st.Resyncs), l...)
			w.Gauge("eventsys_peer_link_pending_events",
				"Spooled backlog awaiting replay to the peer.", float64(st.Pending), l...)
			active := 0.0
			if st.Active {
				active = 1
			}
			w.Gauge("eventsys_peer_link_active",
				"Whether the spanning-tree election selected the link to carry traffic.",
				active, l...)
		}
		shape := shapeSnap()
		for _, path := range []struct {
			name string
			n    int
		}{
			{"paired", shape.Paired}, {"general", shape.General}, {"class_only", shape.ClassOnly},
			{"oversize", shape.Oversize}, {"unindexed", shape.Unindexed},
		} {
			w.Gauge("eventsys_engine_filters",
				"Stored filters by the path an event takes to them (index.Shape; docs/TUNING.md).",
				float64(path.n), "node", s.cfg.ID, "path", path.name)
		}
		ts := s.TopologyStats()
		tl := []string{"node", s.cfg.ID}
		w.Gauge("eventsys_topology_brokers",
			"Brokers in the link-state database.", float64(ts.Brokers), tl...)
		w.Gauge("eventsys_topology_edges",
			"Agreed undirected federation edges.", float64(ts.Edges), tl...)
		w.Gauge("eventsys_topology_active_links",
			"Links elected into the spanning tree.", float64(len(ts.ActivePeers)), tl...)
		w.Gauge("eventsys_topology_standby_links",
			"Connected links held as failover paths.", float64(len(ts.StandbyPeers)), tl...)
		w.Counter("eventsys_topology_failovers_total",
			"Dead-link handoffs to promoted standby paths.", float64(ts.Failovers), tl...)
		w.Counter("eventsys_topology_rerouted_events_total",
			"Events re-routed from dead links' spools onto promoted paths.",
			float64(ts.Reroutes), tl...)
		w.Counter("eventsys_topology_reconciles_total",
			"Control-plane passes that changed the dial-worker set.",
			float64(ts.Reconciles), tl...)
		w.Counter("eventsys_topology_dead_link_closes_total",
			"Connections closed by the heartbeat monitor.", float64(ts.DeadLinkCloses), tl...)
	})
	reg.RegisterStatus("broker/"+s.cfg.ID, func() any { return s.status(peerSnap(), shapeSnap()) })
}

// status is the broker's /debug/status view. The two core-owned parts
// come from the caller: the endpoint passes deadline-guarded snapshots,
// a test dumping a stuck control plane reads them directly.
func (s *Server) status(peers []PeerLinkStats, shape index.Shape) map[string]any {
	return map[string]any{
		"id":          s.cfg.ID,
		"stage":       s.cfg.Stage,
		"addr":        s.Addr(),
		"stats":       s.Stats(),
		"engineShape": shape,
		"flow":        s.FlowStats(),
		"conns":       s.ConnStats(),
		"peers":       peers,
		"topology":    s.TopologyStats(),
		"store":       s.StoreStats(),
		"tracing":     s.tracer.Enabled(),
		"dataDir":     s.cfg.DataDir,
		"flowPolicy":  s.cfg.FlowPolicy.String(),
	}
}

// Addr returns the broker's bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the broker's counters.
func (s *Server) Stats() metrics.NodeStats {
	return s.counters.Stats(s.cfg.ID, s.cfg.Stage)
}

// EngineShape reports how the stored filters map onto the matching
// engine's structures — whether the population is served by the index
// or defeats it (see index.Shape) — via a round-trip through the core
// goroutine; the zero value while shutting down.
func (s *Server) EngineShape() index.Shape {
	var sh index.Shape
	s.coreQuery(func() { sh = s.node.Table().EngineShape() })
	return sh
}

// HasAdvertisement reports whether this broker has seen an advertisement
// for the class — the observable signal that dissemination reached it
// (Section 4.1 floods advertisements to every node).
func (s *Server) HasAdvertisement(class string) bool {
	var ok bool
	s.coreQuery(func() { _, ok = s.ads.Get(class) })
	return ok
}

// ConnectedClients counts currently connected local publisher and
// subscriber connections (child brokers and federation peers excluded).
func (s *Server) ConnectedClients() int {
	var n int
	s.coreQuery(func() {
		for _, pc := range s.byID {
			if pc.kind == transport.PeerPublisher || pc.kind == transport.PeerSubscriber {
				n++
			}
		}
	})
	return n
}

// Close shuts the broker down and waits for all goroutines. The durable
// store (if any) is flushed and closed last.
func (s *Server) Close() {
	// Final peer-state flush while the core still runs, so debounced
	// interest updates reach disk before shutdown.
	s.coreQuery(s.flushPeerState)
	s.cancel()
	s.ln.Close()
	s.mu.Lock()
	for pc := range s.conns {
		pc.close()
	}
	if s.parent != nil {
		s.parent.close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.store != nil {
		_ = s.store.Close()
	}
}

func (s *Server) dialParent() (*peerConn, error) {
	c, err := net.Dial("tcp", s.cfg.ParentAddr)
	if err != nil {
		return nil, fmt.Errorf("broker: dial parent %s: %w", s.cfg.ParentAddr, err)
	}
	pc := s.newPeerConn(c)
	pc.kind, pc.id, pc.dialed = transport.PeerChildBroker, "parent", true
	hello := transport.Hello{Kind: transport.PeerChildBroker, ID: s.cfg.ID, Addr: s.Addr()}
	if err := transport.WriteFrame(c, hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("broker: parent handshake: %w", err)
	}
	// The parent will send events down this connection: grant it an
	// initial credit window and meter out replenishments as the core
	// processes what it sends. The write loop has not started, so the
	// grant goes straight to the socket.
	pc.meter.Store(flow.NewMeter(s.cfg.FlowWindow))
	if err := transport.WriteFrame(c, transport.Credit{Grant: uint32(s.cfg.FlowWindow)}); err != nil {
		c.Close()
		return nil, fmt.Errorf("broker: parent credit grant: %w", err)
	}
	s.counters.AddCreditGranted(uint64(s.cfg.FlowWindow))
	s.wg.Add(2)
	go s.readLoop(pc)
	go s.writeLoop(pc)
	return pc, nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Warn("accept failed", "err", err)
			continue
		}
		pc := s.newPeerConn(c)
		s.mu.Lock()
		s.conns[pc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go s.readLoop(pc)
		go s.writeLoop(pc)
	}
}

// readLoop feeds a connection's frames to the core — except credit
// frames, which it applies to the writer's gate directly: a core
// blocked on a saturated queue (Block policy) must still see grants, or
// the very stall the grant would clear could never clear. The
// FrameReader owns the connection's read side for life: it reads ahead,
// so a burst of frames costs one read, and interns attribute and class
// names, so the steady-state decode of repeated event shapes allocates
// only the frame bodies and their Raw views.
func (s *Server) readLoop(pc *peerConn) {
	defer s.wg.Done()
	fr := transport.NewFrameReader(pc.c)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			s.post(coreEvent{pc: pc, gone: true})
			return
		}
		pc.io.framesRead.Add(1)
		pc.io.reads.Store(fr.Reads())
		// Any inbound frame proves the link alive; the heartbeat loop
		// closes connections whose stamp goes stale.
		pc.lastRecv.Store(obs.Nanotime())
		switch cm := m.(type) {
		case transport.PeerPing:
			// Liveness only — the lastRecv stamp above was the payload.
			continue
		case transport.Credit:
			pc.gate.Grant(int(cm.Grant))
			if !pc.acked {
				pc.acked = true
				_ = pc.tryCtl(transport.CreditAck{Window: cm.Grant}) // informational; droppable
			}
			if s.store != nil {
				// Fresh credit may free a writer whose target has a
				// stored backlog; let the core try a replay.
				s.post(coreEvent{pc: pc, replay: true})
			}
			continue
		case transport.CreditAck:
			pc.peerAcked.Store(true)
			continue
		}
		// Stamp inbound events for hop tracing while this reader still
		// owns the views exclusively (one atomic load when disabled).
		if s.tracer.Enabled() {
			if evs := eventsOf(m); len(evs) > 0 {
				now := obs.Nanotime()
				for _, ev := range evs {
					ev.SetStamp(now)
				}
			}
		}
		s.post(coreEvent{pc: pc, msg: m})
	}
}

// writeCoalesce is the size at which the write loop stops adding frames
// to a buffer and sends it: a backlog of small frames then costs one
// write per thousand or so, and the remote never waits on a long encode.
const writeCoalesce = 64 << 10

// writeLoop drains a connection's outbound queues into one buffer and
// sends it with one write. It flushes as soon as nextOut has nothing more
// to give — the queues ran dry or credit was refused — or the buffer
// reaches writeCoalesce, and it sleeps only on an empty buffer, never on
// a timer: a lone frame leaves as promptly as if it were written alone.
// A failed write loses the frames of that write; whatever is parked or
// queued stays in pc.out for dropPeer to salvage.
func (s *Server) writeLoop(pc *peerConn) {
	defer s.wg.Done()
	defer close(pc.writerDone)
	var (
		batch  transport.FrameBatch
		parked transport.Message   // popped from pc.out, refused by credit
		traced []transport.Message // event frames in batch, while tracing
	)
	defer func() {
		if parked != nil {
			pc.out.Requeue(parked) // salvage still sees it
		}
	}()
	for {
		var m transport.Message
		if batch.Len() < writeCoalesce {
			m = s.nextOut(pc, &parked)
		}
		if m == nil && batch.Len() == 0 {
			// Nothing to send. A parked frame waits for credit, not for
			// the queue behind it; control and grants wake the loop
			// either way.
			ready, credit := pc.out.Ready(), (<-chan struct{})(nil)
			if parked != nil {
				ready, credit = nil, pc.gate.Avail()
			}
			select {
			case m = <-pc.ctl:
			case <-pc.grantSig:
				continue
			case <-ready:
				continue
			case <-credit:
				continue
			case <-pc.done:
				return
			case <-s.ctx.Done():
				return
			}
		}
		if m != nil {
			if err := batch.Append(m); err != nil {
				_ = batch.Flush(pc.c) // what was encoded before the unframeable message
				pc.close()
				return
			}
			if eventCount(m) > 0 && s.tracer.Enabled() {
				traced = append(traced, m)
			}
			continue
		}
		pc.io.writes.Add(1)
		pc.io.framesWritten.Add(uint64(batch.Frames()))
		if err := batch.Flush(pc.c); err != nil {
			pc.close()
			return
		}
		for _, m := range traced {
			for _, ev := range eventsOf(m) {
				s.tracer.Observe(obs.HopDeliver, ev.Stamp())
			}
		}
		clear(traced)
		traced = traced[:0]
	}
}

// nextOut returns the next frame the connection may send now, nil when
// there is none: owed credit first (a grant is what unwedges the remote),
// then control frames, then event frames for as long as the remote's
// credit admits them. An event frame that credit refuses is parked —
// counted as one credit wait — and offered again on every later call, so
// control frames and grants keep flowing past it and a throttled link
// still renews leases, exchanges subscription state and grants its own
// credit, while no event overtakes another.
func (s *Server) nextOut(pc *peerConn, parked *transport.Message) transport.Message {
	if g := pc.pendingGrant.Swap(0); g > 0 {
		return transport.Credit{Grant: uint32(g)}
	}
	select {
	case m := <-pc.ctl:
		return m
	default:
	}
	m, fresh := *parked, false
	if m == nil {
		if m, fresh = pc.out.TryPop(); !fresh {
			return nil
		}
	}
	if n := eventCount(m); n > 0 && !pc.gate.TryAcquire(n) {
		if fresh {
			s.counters.AddCreditWaits(1)
		}
		*parked = m
		return nil
	}
	*parked = nil
	return m
}

// post hands an event to the core. Inbound event frames go through the
// inlet's flow policy (Block stalls this reader — and, via withheld
// grants, the remote sender); everything else always enqueues.
func (s *Server) post(ev coreEvent) {
	if coreEventCount(ev) > 0 {
		s.inlet.Push(ev)
		return
	}
	s.inlet.PushWait(ev)
}

// sendTo enqueues a control frame for a peer without blocking the core.
// A saturated control channel (a wedged writer) drops the frame,
// counted — lease renewal repairs subscription state if it ever hits.
func (s *Server) sendTo(pc *peerConn, m transport.Message) {
	if !pc.tryCtl(m) {
		s.counters.AddDroppedFor(metrics.DropControlFull, 1)
		s.log.Warn("control channel full; dropping", "peer", pc.id, "type", fmt.Sprintf("%T", m))
	}
}

// grantTo meters out credit to a sender whose events were consumed —
// processed by the core, or terminally shed by the inlet's drop policy
// (a dropped event must still repay its credit, or shedding would
// slowly strangle the sender's window into a permanent stall).
func (s *Server) grantTo(pc *peerConn, n int) {
	if pc == nil {
		return
	}
	m := pc.meter.Load()
	if m == nil {
		return
	}
	s.addGrant(pc, m.Consume(n))
}

func (pc *peerConn) close() {
	pc.once.Do(func() {
		pc.c.Close()
		close(pc.done)
	})
}

func (s *Server) ticker() {
	defer s.wg.Done()
	renew := time.NewTicker(s.cfg.TTL / 2)
	sweep := time.NewTicker(s.cfg.TTL)
	defer renew.Stop()
	defer sweep.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-renew.C:
			s.post(coreEvent{tick: tickRenew})
		case <-sweep.C:
			s.post(coreEvent{tick: tickSweep})
		}
	}
}

// core is the single goroutine owning routing state. Publish and
// PublishBatch frames queued in the inlet are drained into batches
// (capped at MaxBatch) and matched in one table pass; every other core
// event is handled one at a time, in queue order.
func (s *Server) core() {
	defer s.wg.Done()
	var batch []*event.Raw
	var owed []pcDebt
	for {
		ev, ok := s.inlet.Pop() // aborts on shutdown
		if !ok {
			return
		}
		batch, owed = s.dispatchCore(ev, batch[:0], owed[:0])
	}
}

// pcDebt tracks credit owed to one sender for events the core consumed
// from its connection during the current coalescing run.
type pcDebt struct {
	pc *peerConn
	n  int
}

// owe records credit debt, merging consecutive events from one sender.
func owe(owed []pcDebt, pc *peerConn, n int) []pcDebt {
	if pc == nil || pc.meter.Load() == nil || n == 0 {
		return owed
	}
	if len(owed) > 0 && owed[len(owed)-1].pc == pc {
		owed[len(owed)-1].n += n
		return owed
	}
	return append(owed, pcDebt{pc: pc, n: n})
}

// settle grants the accumulated credit debts — called after the batch
// they paid for has been flushed downstream, so under Block a slow
// downstream delays the grants and the stall propagates upstream.
func (s *Server) settle(owed []pcDebt) []pcDebt {
	for _, d := range owed {
		s.grantTo(d.pc, d.n)
	}
	return owed[:0]
}

// dispatchCore handles one dequeued core event, opportunistically
// coalescing a run of queued publishes into one matching batch. It
// returns the batch and debt slices (emptied) so core can reuse their
// backing arrays.
func (s *Server) dispatchCore(ev coreEvent, batch []*event.Raw, owed []pcDebt) ([]*event.Raw, []pcDebt) {
	for {
		collected := false
		if !ev.gone && ev.query == nil && ev.call == nil && ev.tick == tickNone {
			switch m := ev.msg.(type) {
			case transport.Publish:
				if m.Event != nil {
					batch = append(batch, m.Event)
				}
				s.checkPublishEpoch(ev.pc, m.Epoch)
				owed = owe(owed, ev.pc, 1)
				collected = true
			case transport.PublishBatch:
				for _, e := range m.Events {
					if e != nil {
						batch = append(batch, e)
					}
				}
				s.checkPublishEpoch(ev.pc, m.Epoch)
				owed = owe(owed, ev.pc, len(m.Events))
				collected = true
			}
		}
		if !collected {
			// A non-publish event interleaved with publishes: flush what
			// was coalesced so far, then handle it — queue order holds.
			// (Peer Forward frames take this path too: they carry their
			// own arrival link for echo suppression, so they never mix
			// into a locally-published batch.)
			s.flushPublishBatch(batch, "")
			batch = batch[:0]
			owed = s.settle(owed)
			s.handleCore(ev)
			return batch, owed
		}
		if len(batch) >= s.cfg.MaxBatch {
			s.flushPublishBatch(batch, "")
			batch = batch[:0]
			owed = s.settle(owed)
		}
		var ok bool
		if ev, ok = s.inlet.TryPop(); !ok {
			s.flushPublishBatch(batch, "")
			return batch[:0], s.settle(owed)
		}
	}
}

func (s *Server) handleCore(ev coreEvent) {
	switch {
	case ev.call != nil:
		ev.call()
	case ev.query != nil:
		n := 0
		for _, pc := range s.byID {
			if pc.kind == transport.PeerChildBroker {
				n++
			}
		}
		ev.query <- n
	case ev.tick == tickRenew:
		if s.parent != nil {
			for _, f := range s.node.RenewalsDue() {
				s.sendTo(s.parent, transport.Renew{ID: s.cfg.ID, Filter: f})
			}
		}
	case ev.tick == tickSweep:
		s.sweepGroupLeases(time.Now())
		if removed := s.node.Sweep(time.Now()); len(removed) > 0 {
			s.log.Info("leases expired", "removed", len(removed))
			// An expired lease is the system's signal that the
			// subscriber abandoned the subscription: drop its durable
			// cursor too, or its stored backlog pins segments forever.
			// Keep the cursor while the subscriber is still connected or
			// still holds other live filters (only one lease lapsed).
			// Forget is a no-op for IDs without cursors (child brokers).
			if s.store != nil {
				for _, id := range removed {
					if _, connected := s.byID[id]; connected || s.node.Table().HasID(id) {
						continue
					}
					s.store.Forget(string(id))
				}
			}
			// Expired subscribers also leave the federation plane (their
			// propagated state stays until link resyncs, like the mesh).
			// A consumer group whose members all stopped renewing lapses
			// the same way: its broker-side state goes with the lease.
			for _, id := range removed {
				if !s.node.Table().HasID(id) {
					s.fed.Unsubscribe(string(id))
					s.dropGroup(string(id))
				}
			}
		}
	case ev.replay:
		s.handleReplayTick(ev.pc)
	case ev.gone:
		s.dropPeer(ev.pc)
	default:
		s.handleMessage(ev.pc, ev.msg)
	}
}

// handleReplayTick drains a connection's stored backlog into its freed
// outbound queue — the spool-to-socket handoff after a credit grant.
func (s *Server) handleReplayTick(pc *peerConn) {
	if s.store == nil {
		return
	}
	switch {
	case pc.link != nil:
		if pc.link.pc == pc {
			s.replayPeerSpool(pc.link)
		}
	case pc.kind == transport.PeerSubscriber && pc.id != "":
		if g := s.groupOf[pc]; g != nil {
			s.replayGroup(g)
		} else {
			s.replayStored(pc)
		}
	}
}

func (s *Server) dropPeer(pc *peerConn) {
	pc.close()
	// The write loop exits promptly once the connection is closed (an
	// in-flight write errors out); after that, frames still queued in
	// pc.out were never written and can be salvaged.
	<-pc.writerDone
	s.forgetConn(pc)
	if pc == s.parent {
		s.log.Warn("parent link lost")
		return
	}
	if pc.link != nil {
		// A federation link went down: keep its learned interests so
		// matching events keep spilling to the durable store; the dial
		// worker reconnects and the election resyncs on promotion.
		if pc.link.pc == pc {
			pc.link.pc = nil
			pc.link.synced = false
			s.log.Warn("peer link down", "peer", pc.link.id)
		}
		s.salvageQueued(pc, spoolKey(pc.link.id), pc.link)
		// Re-announce and re-elect once the link is ownerless (covers
		// connections sendCtrl already detached); a replaced duplicate
		// connection leaves the live link alone.
		if pc.link.pc == nil {
			s.topologyLinkDown()
		}
		return
	}
	if pc.id != "" {
		if cur, ok := s.byID[routing.NodeID(pc.id)]; ok && cur == pc {
			delete(s.byID, routing.NodeID(pc.id))
			if pc.kind == transport.PeerChildBroker {
				s.node.RemoveChild(routing.NodeID(pc.id))
			}
		}
		if pc.kind == transport.PeerSubscriber {
			if g := s.groupOf[pc]; g != nil {
				// A dead member's in-flight deliveries redeliver to the
				// survivors (or spill to the group's durable cursor); its
				// queued-but-unwritten frames are covered by the same
				// leases, so no separate salvage.
				s.removeGroupMember(pc, g, false, nil)
			} else {
				s.salvageQueued(pc, pc.id, nil)
			}
		}
	}
}

// salvageQueued rescues the events left in a dead connection's outbound
// queue — enqueued (and, for replayed backlog, already consumed from the
// durable cursor) but never written to the socket. They re-enter the
// durable backlog when that preserves order, i.e. when no older backlog
// is pending behind them; a non-durable target just loses its queue, as
// before. For peer links an unsalvageable queue is counted as dropped —
// never silently, never reordered.
func (s *Server) salvageQueued(pc *peerConn, key string, link *peerLink) {
	var evs []*event.Raw
	for {
		m, ok := pc.out.TryPop()
		if !ok {
			break
		}
		evs = append(evs, eventsOf(m)...)
	}
	if len(evs) == 0 {
		return
	}
	if s.store != nil && s.store.Pending(key) == 0 && s.storeBatchFor(key, evs) {
		if link != nil {
			link.spooled += uint64(len(evs))
		}
		s.log.Info("salvaged undelivered queue", "key", key, "events", len(evs))
	} else if link != nil {
		link.dropped += uint64(len(evs))
		s.counters.AddDroppedFor(metrics.DropLinkLost, uint64(len(evs)))
		s.log.Warn("peer link queue lost", "peer", link.id, "events", len(evs))
	}
}

func (s *Server) handleMessage(pc *peerConn, m transport.Message) {
	switch msg := m.(type) {
	case transport.Hello:
		s.setIdentity(pc, msg.Kind, msg.ID, msg.Addr)
		if msg.ID != "" {
			s.byID[routing.NodeID(msg.ID)] = pc
		}
		if msg.Kind == transport.PeerChildBroker {
			s.node.AddChild(routing.NodeID(msg.ID))
			// Replay known advertisements: a (re)joining child missed
			// any dissemination that happened before it connected
			// (Section 4.1: advertisements reach every node).
			for _, class := range s.ads.Classes() {
				if ad, ok := s.ads.Get(class); ok {
					s.sendTo(pc, transport.Advertise{Ad: ad})
				}
			}
			s.log.Info("child broker joined", "child", msg.ID, "addr", msg.Addr)
		}
		if msg.Kind == transport.PeerPublisher {
			// Publishers inject events here: grant an initial credit
			// window and meter replenishments to the core's actual
			// processing rate — the admission-control contract.
			pc.meter.Store(flow.NewMeter(s.cfg.FlowWindow))
			s.addGrant(pc, s.cfg.FlowWindow)
		}
	case transport.Publish:
		// Publishes normally coalesce in dispatchCore before reaching
		// handleMessage; this arm keeps direct calls correct.
		if msg.Event == nil {
			return
		}
		s.checkPublishEpoch(pc, msg.Epoch)
		s.flushPublishBatch([]*event.Raw{msg.Event}, "")
	case transport.PublishBatch:
		s.checkPublishEpoch(pc, msg.Epoch)
		s.flushPublishBatch(msg.Events, "")
	case transport.PeerHello:
		s.handlePeerHello(pc, msg)
	case transport.SubSet:
		s.handleSubSet(pc, msg)
	case transport.SubUpdate:
		s.handleSubUpdate(pc, msg)
	case transport.LinkState:
		s.handleLinkState(pc, msg)
	case transport.Forward:
		if pc.link == nil || msg.Event == nil {
			return
		}
		s.flushPublishBatch([]*event.Raw{msg.Event}, peering.LinkID(pc.link.id))
		s.grantTo(pc, 1)
	case transport.ForwardBatch:
		if pc.link == nil {
			return
		}
		s.flushPublishBatch(msg.Events, peering.LinkID(pc.link.id))
		s.grantTo(pc, len(msg.Events))
	case transport.Subscribe:
		if msg.Filter == nil {
			return
		}
		if msg.Group != "" {
			s.handleGroupSubscribe(pc, msg)
			return
		}
		if strings.HasPrefix(msg.SubscriberID, "@") {
			// Reserved namespace: a subscriber must not alias a peer
			// link's durable spool cursor ("@peer/…") or a child
			// broker's federation aggregate ("@child/…").
			s.log.Warn("rejecting reserved subscriber ID", "id", msg.SubscriberID)
			s.sendTo(pc, transport.SubscribeReply{Accepted: false, TargetAddr: ""})
			return
		}
		res := s.node.HandleSubscribe(msg.Filter, routing.NodeID(msg.SubscriberID), s.rng, time.Now())
		if res.Action == routing.ActionAccept {
			s.acceptLocalSub(pc, msg.SubscriberID, msg.Filter, res.Stored)
			if res.Up != nil && s.parent != nil {
				s.sendTo(s.parent, transport.ReqInsert{ChildID: s.cfg.ID, Filter: res.Up})
			}
			return
		}
		target, ok := s.byID[res.Target]
		if !ok || target.addr == "" {
			// Child vanished between covering search and reply: accept
			// locally rather than strand the subscriber.
			acc := s.node.HandleSubscribe(msg.Filter, routing.NodeID(msg.SubscriberID), s.rng, time.Now())
			if acc.Action == routing.ActionAccept {
				s.acceptLocalSub(pc, msg.SubscriberID, msg.Filter, acc.Stored)
			} else {
				s.sendTo(pc, transport.SubscribeReply{Accepted: false, TargetAddr: ""})
			}
			return
		}
		s.sendTo(pc, transport.SubscribeReply{Accepted: false, TargetAddr: target.addr})
	case transport.ReqInsert:
		if msg.Filter == nil {
			return
		}
		up := s.node.HandleReqInsert(msg.Filter, routing.NodeID(msg.ChildID), time.Now())
		if up != nil && s.parent != nil {
			s.sendTo(s.parent, transport.ReqInsert{ChildID: s.cfg.ID, Filter: up})
		}
		// The subtree's interest joins the federation plane too:
		// without this, events published at peer brokers would never
		// route toward subscribers living below this broker's children.
		// The core absorbs filters covered by ones already registered
		// for the child, so repeated inserts stay bounded. (Peer links
		// belong on hierarchy roots: events cross the federation at the
		// top and fan down — see docs/ARCHITECTURE.md.)
		s.fanUpdates(s.fed.Subscribe(childFedKey(msg.ChildID), msg.Filter))
	case transport.Renew:
		if msg.Filter == nil {
			return
		}
		// A group member renews on behalf of the whole group: the
		// subscription lives under the group's routing ID, not the
		// member's.
		if g := s.groupOf[pc]; g != nil {
			s.node.HandleRenew(msg.Filter, routing.NodeID(g.gid), time.Now())
			return
		}
		s.node.HandleRenew(msg.Filter, routing.NodeID(msg.ID), time.Now())
	case transport.GroupAck:
		if g := s.groupOf[pc]; g != nil {
			s.ackGroupDelivery(g, msg.Seq)
		}
	case transport.Unsubscribe:
		if msg.Filter == nil {
			return
		}
		if g := s.groupOf[pc]; g != nil {
			s.removeGroupMember(pc, g, true, msg.Filter)
			return
		}
		s.node.HandleUnsubscribe(msg.Filter, routing.NodeID(msg.ID))
		// Drop the durable cursor only when this was the subscriber's
		// last filter here — unsubscribing one of several must not
		// destroy the backlog the others are still owed.
		if !s.node.Table().HasID(routing.NodeID(msg.ID)) {
			if s.store != nil {
				s.store.Forget(msg.ID)
			}
			s.fed.Unsubscribe(msg.ID)
		}
	case transport.Advertise:
		if msg.Ad == nil {
			return
		}
		if err := s.ads.Put(msg.Ad); err != nil {
			s.log.Warn("rejecting advertisement", "class", msg.Ad.Class, "err", err)
			return
		}
		// Disseminate down the tree (Section 4.1: advertisements reach
		// every node) and across the federation — spanning-tree edges
		// only: the elected forest is acyclic, so excluding the arrival
		// link terminates the flood even when the configured links form
		// cycles. Standby links catch up on promotion (recomputeTopology
		// replays the advertisement set).
		for _, dst := range s.byID {
			if dst.kind == transport.PeerChildBroker {
				s.sendTo(dst, msg)
			}
		}
		for _, link := range s.peerLinks {
			if link.active && link.pc != nil && link.pc != pc {
				s.sendTo(link.pc, msg)
			}
		}
	}
}

// acceptLocalSub finishes an accepted subscription: durable cursor,
// reply, stored-backlog replay, and federation-plane registration of the
// subscriber's original filter.
func (s *Server) acceptLocalSub(pc *peerConn, subID string, original, stored *filter.Filter) {
	if s.store != nil {
		if _, _, err := s.store.Register(subID); err != nil {
			s.log.Warn("store register failed", "subscriber", subID, "err", err)
		}
	}
	s.sendTo(pc, transport.SubscribeReply{Accepted: true, Stored: stored})
	// Replay any backlog stored while this subscriber was away — after
	// the reply (the client discards frames until it), and before any
	// live event (the core enqueues both in order).
	s.replayStored(pc)
	// Propagate the original (stage-0) filter to peers: each hop stores
	// a hop-weakened form, exactly as the in-process mesh does.
	s.fanUpdates(s.fed.Subscribe(subID, original))
}

// flushPublishBatch matches a coalesced run of events in one table pass
// and fans the results out. Event copies bound for the same child broker
// leave as one PublishBatch frame (amortizing framing and syscalls), and
// events persisted for the same disconnected subscriber go to the store
// as one AppendBatch (amortizing locking and fsyncs). Connected
// subscribers are routed in event order, so per-subscriber FIFO — and
// the stored-backlog-first replay invariant — hold exactly as on the
// per-event path. Events also fan out to federation peer links with a
// matching interest (reverse-path forwarding), excluding the link the
// batch arrived on (fromPeer, "" for local publishes).
func (s *Server) flushPublishBatch(events []*event.Raw, fromPeer peering.LinkID) {
	if len(events) == 0 {
		return
	}
	s.fanPeers(events, fromPeer)
	s.views = s.views[:0]
	for _, ev := range events {
		s.views = append(s.views, ev)
	}
	routes := s.node.HandleEventBatch(s.views)
	if s.tracer.Enabled() {
		for _, ev := range events {
			if ev != nil {
				s.tracer.Observe(obs.HopMatch, ev.Stamp())
			}
		}
	}
	var childOrder, storeOrder []routing.NodeID
	var toChild, toStore map[routing.NodeID][]*event.Raw
	for i, ids := range routes {
		ev := events[i]
		if ev == nil {
			continue
		}
		for _, id := range ids {
			if g, isGroup := s.groups[string(id)]; isGroup {
				// A consumer group's events compete among its members
				// instead of fanning to each; see group.go.
				s.routeToGroup(g, ev)
				continue
			}
			dst, ok := s.byID[id]
			switch {
			case !ok:
				// Disconnected peer. A durable subscriber's events are
				// persisted for redelivery on reconnect; anything else is
				// left to lease expiry.
				if toStore == nil {
					toStore = make(map[routing.NodeID][]*event.Raw)
				}
				if _, seen := toStore[id]; !seen {
					storeOrder = append(storeOrder, id)
				}
				toStore[id] = append(toStore[id], ev)
			case dst.kind == transport.PeerChildBroker:
				if toChild == nil {
					toChild = make(map[routing.NodeID][]*event.Raw)
				}
				if _, seen := toChild[id]; !seen {
					childOrder = append(childOrder, id)
				}
				toChild[id] = append(toChild[id], ev)
			default:
				s.routeToSubscriber(dst, id, ev)
			}
		}
	}
	for _, id := range childOrder {
		evs := toChild[id]
		dst := s.byID[id]
		var m transport.Message
		if len(evs) == 1 {
			m = transport.Publish{Event: evs[0]}
		} else {
			m = transport.PublishBatch{Events: evs}
		}
		// The queue applies the flow policy: Block stalls the core (and,
		// through withheld grants, this broker's own senders); the drop
		// policies count every event the frame carried, exactly as the
		// per-event path would. A Stopped push means the child vanished
		// mid-route — its events are lost with the connection, counted.
		if out := dst.out.Push(m); out == flow.Stopped {
			s.counters.AddDroppedFor(metrics.DropConnClosed, uint64(len(evs)))
		} else if s.tracer.Enabled() {
			for _, ev := range evs {
				s.tracer.Observe(obs.HopForward, ev.Stamp())
			}
		}
	}
	for _, id := range storeOrder {
		s.storeBatchFor(string(id), toStore[id])
	}
}

// routeToSubscriber delivers one event to a connected subscriber under
// the flow policy, keeping any stored backlog ahead of live traffic.
func (s *Server) routeToSubscriber(dst *peerConn, id routing.NodeID, ev *event.Raw) {
	// A connected subscriber with a stored backlog (persisted during a
	// saturation spell) must drain it first, or later events overtake the
	// stored ones. Skip the replay attempt while the queue is still full —
	// scanning segments that cannot drain anywhere would stall the core
	// for nothing.
	if s.store != nil && s.store.Pending(string(id)) > 0 &&
		(dst.out.Full() || s.replayStored(dst) > 0) {
		// Still saturated: keep FIFO by storing the new event behind the
		// backlog — whatever the policy, reordering is never an option.
		if s.storeFor(string(id), ev) {
			s.counters.AddSpilled(1)
		} else {
			s.counters.AddDroppedFor(metrics.DropNoStore, 1)
		}
		return
	}
	// The queue applies the policy on saturation: Block stalls the core,
	// DropNewest/DropOldest shed (counted), SpillToStore persists via
	// the connection's spill hook. Stopped means the subscriber vanished
	// mid-route: persist for its return when the store knows it.
	if out := dst.out.Push(transport.Deliver{Event: ev}); out == flow.Stopped {
		if !s.storeFor(string(id), ev) {
			s.counters.AddDroppedFor(metrics.DropConnClosed, 1)
		}
	} else {
		s.tracer.Observe(obs.HopForward, ev.Stamp())
	}
}

// storeBatchFor persists a run of events for one unreachable subscriber
// in a single store batch; it reports whether the run was stored (false
// when the broker runs without a store or the ID has no durable cursor).
func (s *Server) storeBatchFor(subID string, evs []*event.Raw) bool {
	if s.store == nil || !s.store.Known(subID) {
		return false
	}
	n, bytes, err := s.store.AppendBatch(subID, evs)
	if err != nil {
		s.log.Warn("store append failed", "subscriber", subID, "err", err)
		s.counters.AddDroppedFor(metrics.DropStoreError, uint64(len(evs)-n))
	}
	if n > 0 {
		s.counters.AddStoreAppended(uint64(n))
		s.counters.AddStoredBytes(uint64(bytes))
	}
	return true
}

// storeFor persists an event for a subscriber the broker cannot reach
// right now (disconnected, or its outbound queue is saturated). It
// reports whether the event was stored: false when the broker runs
// without a store or the ID has no durable cursor (e.g. a child broker's
// ID, or a subscriber that never subscribed at this broker).
func (s *Server) storeFor(subID string, ev *event.Raw) bool {
	if s.store == nil || !s.store.Known(subID) {
		return false
	}
	_, n, err := s.store.Append(subID, ev)
	if err != nil {
		s.log.Warn("store append failed", "subscriber", subID, "err", err)
		s.counters.AddDroppedFor(metrics.DropStoreError, 1)
		return true // accounted for; don't double-count as a queue drop
	}
	s.counters.AddStoreAppended(1)
	s.counters.AddStoredBytes(uint64(n))
	return true
}

// replayStored redelivers a subscriber's stored backlog as Deliver
// frames, in original order, ahead of any new live event (the core
// goroutine enqueues both, so ordering holds). If the outbound queue
// saturates mid-replay the remainder stays pending — returned to the
// caller — until the next replay opportunity (another matching event, or
// a reconnect).
func (s *Server) replayStored(pc *peerConn) (remaining int) {
	if pc.id == "" {
		return 0
	}
	return s.replayQueue(pc, pc.id, func(ev *event.Raw) transport.Message {
		return transport.Deliver{Event: ev}
	})
}

// replayQueue drains the stored backlog under key into pc's outbound
// queue, wrapping each event with wrap (Deliver for subscribers, Forward
// for peer links). It returns the backlog still pending after the drain.
func (s *Server) replayQueue(pc *peerConn, key string, wrap func(*event.Raw) transport.Message) (remaining int) {
	if s.store == nil || s.store.Pending(key) == 0 {
		return 0
	}
	n, err := s.store.Replay(key, func(ev *event.Raw) bool {
		// Non-blocking, no policy: when the window fills the remainder
		// stays pending in the store for the next replay opportunity.
		return pc.out.TryPush(wrap(ev))
	})
	if err != nil {
		s.log.Warn("store replay failed", "key", key, "err", err)
	}
	if n > 0 {
		s.counters.AddStoreReplayed(uint64(n))
		s.log.Info("replayed stored backlog", "key", key, "events", n)
	}
	return s.store.Pending(key)
}

// FlowStats snapshots the broker's bounded queues — the core inlet
// ("inlet") plus every connection's outbound event queue ("out/<id>",
// with anonymous connections as "out/?") — ordered by name. It never
// touches the core goroutine: queue gauges are atomic and identities
// are read under s.mu, so the overload-diagnosis API stays responsive
// precisely when a Block-policy stall has the core waiting.
func (s *Server) FlowStats() []flow.Snapshot {
	out := []flow.Snapshot{s.inlet.Snapshot("inlet")}
	s.mu.Lock()
	type namedQueue struct {
		name string
		q    *flow.Queue[transport.Message]
	}
	queues := make([]namedQueue, 0, len(s.conns)+1)
	for pc := range s.conns {
		queues = append(queues, namedQueue{pc.name(), pc.out})
	}
	s.mu.Unlock()
	if s.parent != nil {
		queues = append(queues, namedQueue{"parent", s.parent.out})
	}
	for _, nq := range queues {
		out = append(out, nq.q.Snapshot("out/"+nq.name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ChildBrokers reports the currently connected child broker count via a
// round-trip through the core goroutine (used by tests and orchestration
// to await topology readiness).
func (s *Server) ChildBrokers() int {
	done := make(chan int, 1)
	if s.inlet.PushWait(coreEvent{query: done}) != flow.Enqueued {
		return 0
	}
	select {
	case n := <-done:
		return n
	case <-s.ctx.Done():
		return 0
	}
}
