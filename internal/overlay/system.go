package overlay

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/index"
	"eventsys/internal/metrics"
	"eventsys/internal/obs"
	"eventsys/internal/routing"
	"eventsys/internal/store"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
)

// Config parameterizes an overlay System.
type Config struct {
	// Fanouts lists broker counts per stage from the top down (the paper
	// evaluates {1, 10, 100}). Required.
	Fanouts []int
	// TTL is the lease renewal period (Section 4.3); 0 disables expiry.
	TTL time.Duration
	// AutoMaintain runs a background renewal/sweep loop every TTL/2.
	// Ignored when TTL is 0. Without it, call Maintain explicitly.
	AutoMaintain bool
	// Registry resolves event type conformance (type-based subscribing);
	// nil means exact type names.
	Registry *typing.Registry
	// MaxBatch caps how many queued events a broker actor coalesces into
	// one matching pass (default 64; 1 disables coalescing). Larger
	// batches amortize per-event actor overhead, at the cost of burstier
	// downstream delivery.
	MaxBatch int
	// InboxSize buffers node inboxes (default 256).
	InboxSize int
	// DeliveryBuffer buffers each subscriber's channel (default 64).
	DeliveryBuffer int
	// FlowPolicy selects the slow-consumer policy applied to event
	// traffic at every bounded queue in the overlay: actor mailboxes and
	// subscriber delivery queues. The default, flow.Block, is lossless
	// end-to-end backpressure — a slow subscriber stalls its broker,
	// full mailboxes stall their upstreams, and a saturated root stalls
	// Publish itself. flow.DropNewest / flow.DropOldest shed events at
	// the saturated queue (counted in NodeStats.Dropped). With
	// flow.SpillToStore, a saturated delivery queue diverts overflow to
	// the durable store (durable subscriptions with a Store) or the
	// bounded in-memory backlog, replaying in order once the subscriber
	// catches up; mailboxes — where events are not yet matched to a
	// subscriber — treat SpillToStore as Block. Control messages
	// (placement, leases, barriers) are never dropped by any policy.
	FlowPolicy flow.Policy
	// FlowWindow overrides both InboxSize and DeliveryBuffer when > 0:
	// one knob bounding every queue on the delivery path.
	FlowWindow int
	// DurableBuffer bounds the per-subscriber backlog stored while a
	// durable subscription is detached (default 4096; oldest events are
	// evicted beyond it). Ignored when Store is set: the store's own
	// retention policy bounds the persisted backlog instead.
	DurableBuffer int
	// Store, when non-nil, persists durable-subscription backlogs to disk
	// instead of process memory: events arriving while a durable handle
	// is detached are appended to the store, survive a process restart,
	// and replay in order on Resume. The caller owns the store and closes
	// it after the overlay shuts down.
	Store *store.Store
	// Seed drives placement randomness deterministically.
	Seed uint64
	// Tracer, when non-nil and enabled, records hop-level latency:
	// Publish stamps the event, and the match, delivery-queue and
	// handler-handoff stages record elapsed-since-publish histograms.
	// Nil is a no-op.
	Tracer *obs.Tracer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.FlowWindow > 0 {
		out.InboxSize = out.FlowWindow
		out.DeliveryBuffer = out.FlowWindow
	}
	if out.InboxSize <= 0 {
		out.InboxSize = 256
	}
	if out.DeliveryBuffer <= 0 {
		out.DeliveryBuffer = 64
	}
	if out.DurableBuffer <= 0 {
		out.DurableBuffer = 4096
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = DefaultMaxBatch
	}
	return out
}

// DefaultMaxBatch is the default cap on events coalesced per matching
// pass.
const DefaultMaxBatch = 64

// System is a running overlay. Create with New, stop with Close.
type System struct {
	cfg       Config
	conf      filter.Conformance
	ads       *typing.AdvertisementSet
	weakener  *weaken.Weakener
	collector *metrics.Collector

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	actors map[routing.NodeID]*actor
	root   *actor

	mu     sync.RWMutex
	subs   map[routing.NodeID]*Handle
	closed bool

	pubSeq atomic.Uint64
}

// actor owns one routing.Node; only its goroutine touches the core.
type actor struct {
	sys   *System
	node  *routing.Node
	inbox *flow.Queue[message]
	rng   *rand.Rand
	// views is the reusable batch-matching scratch (core-owned).
	views []event.View
}

// mailboxPolicy maps the configured flow policy onto inlet queues:
// mailboxes hold events that are not yet matched to a subscriber, so
// SpillToStore (a per-subscriber concept) degrades to lossless Block.
func mailboxPolicy(p flow.Policy) flow.Policy {
	if p == flow.SpillToStore {
		return flow.Block
	}
	return p
}

// evictableMessage marks the mailbox items a drop policy may discard:
// published events only — placement, lease, and barrier traffic always
// survives saturation.
func evictableMessage(m message) bool {
	switch m.(type) {
	case pubMsg, pubBatchMsg:
		return true
	}
	return false
}

// eventsIn counts the events a mailbox message carries (drop accounting
// counts events, not envelopes).
func eventsIn(m message) uint64 {
	switch msg := m.(type) {
	case pubMsg:
		return 1
	case pubBatchMsg:
		return uint64(len(msg.evs))
	}
	return 0
}

// New builds and starts the overlay.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Fanouts) == 0 {
		return nil, fmt.Errorf("overlay: Fanouts required")
	}
	for i, n := range cfg.Fanouts {
		if n <= 0 {
			return nil, fmt.Errorf("overlay: Fanouts[%d] = %d, want > 0", i, n)
		}
	}
	var conf filter.Conformance = filter.ExactTypes{}
	if cfg.Registry != nil {
		conf = cfg.Registry
	}
	s := &System{
		cfg:       cfg,
		conf:      conf,
		ads:       &typing.AdvertisementSet{},
		collector: &metrics.Collector{},
		actors:    make(map[routing.NodeID]*actor),
		subs:      make(map[routing.NodeID]*Handle),
	}
	s.weakener = weaken.New(s.ads, conf)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.buildActors()
	for _, a := range s.actors {
		s.wg.Add(1)
		go a.run()
	}
	if cfg.TTL > 0 && cfg.AutoMaintain {
		s.wg.Add(1)
		go s.maintainLoop()
	}
	return s, nil
}

// buildActors instantiates the broker tree (same layout as the
// simulator: children spread evenly under the level above).
func (s *System) buildActors() {
	stages := len(s.cfg.Fanouts)
	ids := make([][]routing.NodeID, stages)
	for level, count := range s.cfg.Fanouts {
		stage := stages - level
		ids[level] = make([]routing.NodeID, count)
		for i := 0; i < count; i++ {
			ids[level][i] = routing.NodeID(fmt.Sprintf("N%d.%d", stage, i+1))
		}
	}
	seq := uint64(0)
	for level, count := range s.cfg.Fanouts {
		stage := stages - level
		for i := 0; i < count; i++ {
			id := ids[level][i]
			var parent routing.NodeID
			if level > 0 {
				parent = ids[level-1][i*len(ids[level-1])/count]
			}
			var children []routing.NodeID
			if level+1 < stages {
				below := len(ids[level+1])
				for j := 0; j < below; j++ {
					if j*count/below == i {
						children = append(children, ids[level+1][j])
					}
				}
			}
			node := routing.NewNode(routing.Config{
				ID: id, Stage: stage, Parent: parent, Children: children,
				TTL: s.cfg.TTL, Conf: s.conf, Weakener: s.weakener,
				Counters: s.collector.Counters(string(id), stage),
				Engine:   index.Config{Conf: s.conf},
			})
			seq++
			counters := s.collector.Counters(string(id), stage)
			a := &actor{
				sys:  s,
				node: node,
				inbox: flow.New(flow.Config[message]{
					Window:    s.cfg.InboxSize,
					Policy:    mailboxPolicy(s.cfg.FlowPolicy),
					Evictable: evictableMessage,
					OnDrop:    func(m message) { counters.AddDroppedFor(metrics.DropQueueFull, eventsIn(m)) },
					OnStall:   func() { counters.AddStalled(1) },
					Stop:      s.ctx.Done(),
				}),
				rng: rand.New(rand.NewPCG(s.cfg.Seed, seq)),
			}
			s.actors[id] = a
			if parent == "" && stage == stages {
				s.root = a
			}
		}
	}
}

// send delivers a message to an actor, giving up when the system stops.
// Event messages go through the mailbox's flow policy (Block waits,
// drop policies shed — counted at the receiving node); control messages
// always enqueue, waiting for space if they must.
func (s *System) send(to routing.NodeID, m message) error {
	a, ok := s.actors[to]
	if !ok {
		return fmt.Errorf("overlay: unknown node %q", to)
	}
	if s.ctx.Err() != nil {
		return fmt.Errorf("overlay: system closed")
	}
	var out flow.Outcome
	switch m.(type) {
	case pubMsg, pubBatchMsg:
		out = a.inbox.Push(m)
	default:
		out = a.inbox.PushWait(m)
	}
	if out == flow.Stopped {
		return fmt.Errorf("overlay: system closed")
	}
	return nil
}

// run is the actor loop: serialize all access to the routing core.
// Publishes queued in the mailbox are drained into batches (capped at
// Config.MaxBatch) and matched in one table pass; every other message
// kind is handled one at a time, in mailbox order, so the FIFO reasoning
// behind Flush still holds.
func (a *actor) run() {
	defer a.sys.wg.Done()
	var batch []*event.Event
	for {
		m, ok := a.inbox.Pop() // aborts on system shutdown
		if !ok {
			return
		}
		batch = a.dispatch(m, batch[:0])
	}
}

// dispatch handles one dequeued message, opportunistically coalescing a
// run of queued publishes into one matching batch. It returns the batch
// slice (emptied) so run can reuse its backing array.
func (a *actor) dispatch(m message, batch []*event.Event) []*event.Event {
	for {
		switch msg := m.(type) {
		case pubMsg:
			batch = append(batch, msg.ev)
		case pubBatchMsg:
			batch = append(batch, msg.evs...)
		default:
			// A control message interleaved with publishes: flush what
			// was coalesced so far, then handle it — mailbox order holds.
			a.flushBatch(batch)
			batch = batch[:0]
			a.handle(m)
			return batch
		}
		if len(batch) >= a.sys.cfg.MaxBatch {
			a.flushBatch(batch)
			batch = batch[:0]
		}
		var ok bool
		if m, ok = a.inbox.TryPop(); !ok {
			a.flushBatch(batch)
			return batch[:0]
		}
	}
}

// flushBatch matches a coalesced batch in one table pass and fans the
// results out: per-destination event runs forward to child actors as one
// pubBatchMsg (order preserved), and deliveries to local subscribers
// happen in event order — per-subscriber FIFO is never reordered.
func (a *actor) flushBatch(events []*event.Event) {
	if len(events) == 0 {
		return
	}
	a.views = a.views[:0]
	for _, ev := range events {
		a.views = append(a.views, ev)
	}
	routes := a.node.HandleEventBatch(a.views)
	if t := a.sys.cfg.Tracer; t.Enabled() {
		for _, ev := range events {
			t.Observe(obs.HopMatch, ev.Stamp())
		}
	}
	if len(events) == 1 {
		// Common un-coalesced case: skip the grouping allocations.
		for _, id := range routes[0] {
			if _, ok := a.sys.actors[id]; ok {
				_ = a.sys.send(id, pubMsg{ev: events[0]})
				continue
			}
			a.sys.deliver(id, events[0])
		}
		return
	}
	var order []routing.NodeID
	byDest := make(map[routing.NodeID][]*event.Event)
	for i, ids := range routes {
		for _, id := range ids {
			if _, ok := byDest[id]; !ok {
				order = append(order, id)
			}
			byDest[id] = append(byDest[id], events[i])
		}
	}
	for _, id := range order {
		evs := byDest[id]
		if _, ok := a.sys.actors[id]; ok {
			if len(evs) == 1 {
				_ = a.sys.send(id, pubMsg{ev: evs[0]})
			} else {
				_ = a.sys.send(id, pubBatchMsg{evs: evs})
			}
			continue
		}
		for _, ev := range evs {
			a.sys.deliver(id, ev)
		}
	}
}

func (a *actor) handle(m message) {
	switch msg := m.(type) {
	case subMsg:
		res := a.node.HandleSubscribe(msg.f, msg.sid, a.rng, time.Now())
		select {
		case msg.reply <- res:
		case <-a.sys.ctx.Done():
		}
	case reqInsertMsg:
		up := a.node.HandleReqInsert(msg.f, msg.child, time.Now())
		if a.node.IsRoot() {
			up = nil
		}
		select {
		case msg.reply <- up:
		case <-a.sys.ctx.Done():
		}
	case renewMsg:
		a.node.HandleRenew(msg.f, msg.id, msg.now)
	case unsubMsg:
		a.node.HandleUnsubscribe(msg.f, msg.id)
	case renewTickMsg:
		if !a.node.IsRoot() {
			for _, f := range a.node.RenewalsDue() {
				_ = a.sys.send(a.node.Parent(), renewMsg{f: f, id: a.node.ID(), now: msg.now})
			}
		}
	case sweepMsg:
		removed := a.node.Sweep(msg.now)
		// Drop durable cursors of expired subscribers that no longer
		// have a live handle — an abandoned subscription must not pin
		// stored segments forever. Live handles keep their cursors (the
		// subscriber may still Resume; Maintain renews it).
		if st := a.sys.cfg.Store; st != nil && len(removed) > 0 {
			var gone []routing.NodeID
			a.sys.mu.RLock()
			for _, id := range removed {
				if _, live := a.sys.subs[id]; !live {
					gone = append(gone, id)
				}
			}
			a.sys.mu.RUnlock()
			for _, id := range gone {
				st.Forget(string(id))
			}
		}
	case flushMsg:
		for _, child := range a.node.Children() {
			fm := flushMsg{ack: msg.ack}
			_ = a.sys.send(child, fm)
		}
		select {
		case msg.ack <- struct{}{}:
		case <-a.sys.ctx.Done():
		}
	}
}

// deliver hands an event to a subscriber runtime under its flow policy:
// Block waits for queue space (lossless backpressure into the broker
// actor), the drop policies shed, and SpillToStore diverts to the
// subscriber's backlog for in-order replay.
func (s *System) deliver(id routing.NodeID, ev *event.Event) {
	s.mu.RLock()
	h := s.subs[id]
	s.mu.RUnlock()
	if h == nil {
		return // unsubscribed; residual routing state will expire
	}
	h.send(ev)
}

// Advertise registers an event class advertisement system-wide. In this
// in-process runtime the advertisement set is shared by all brokers, so
// one call makes the schema (and its attribute-stage association) visible
// everywhere — modeling the paper's advertisement dissemination.
func (s *System) Advertise(ad *typing.Advertisement) error {
	want := len(s.cfg.Fanouts) + 1
	if ad.Stages() != want {
		return fmt.Errorf("overlay: advertisement for %q covers %d stages, hierarchy needs %d",
			ad.Class, ad.Stages(), want)
	}
	return s.ads.Put(ad)
}

// Publish injects an event at the root (the top-most stage, Section 4).
// The event is stamped with a system-wide sequence ID.
func (s *System) Publish(e *event.Event) error {
	if e == nil {
		return fmt.Errorf("overlay: nil event")
	}
	e.ID = s.pubSeq.Add(1)
	if s.cfg.Tracer.Enabled() {
		e.SetStamp(obs.Nanotime())
	}
	return s.send(s.root.node.ID(), pubMsg{ev: e})
}

// Flush blocks until every event published before the call has been
// processed by every broker and delivered to subscriber handlers.
func (s *System) Flush() {
	// Phase 1: tree barrier over brokers.
	ack := make(chan struct{}, len(s.actors))
	if err := s.send(s.root.node.ID(), flushMsg{ack: ack}); err != nil {
		return
	}
	for i := 0; i < len(s.actors); i++ {
		select {
		case <-ack:
		case <-s.ctx.Done():
			return
		}
	}
	// Phase 2: barrier through each subscriber's delivery queue.
	s.mu.RLock()
	handles := make([]*Handle, 0, len(s.subs))
	for _, h := range s.subs {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	for _, h := range handles {
		done := make(chan struct{})
		if h.q.PushWait(delivery{flush: done}) != flow.Enqueued {
			continue // subscriber stopped (or system closing)
		}
		select {
		case <-done:
		case <-h.done:
		case <-s.ctx.Done():
			return
		}
	}
}

// Maintain performs one synchronous renewal round followed by a sweep at
// the given time. Tests drive it with a fake clock; AutoMaintain drives
// it with the wall clock.
func (s *System) Maintain(now time.Time) {
	// Subscriber renewals first, then broker-to-parent renewals.
	s.mu.RLock()
	handles := make([]*Handle, 0, len(s.subs))
	for _, h := range s.subs {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	for _, h := range handles {
		node, stored := h.renewTarget()
		if node != "" {
			_ = s.send(node, renewMsg{f: stored, id: h.id, now: now})
		}
	}
	for id := range s.actors {
		_ = s.send(id, renewTickMsg{now: now})
	}
	s.Flush()
	for id := range s.actors {
		_ = s.send(id, sweepMsg{now: now})
	}
	s.Flush()
}

func (s *System) maintainLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.TTL / 2)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-ticker.C:
			s.Maintain(now)
		}
	}
}

// Stats snapshots every broker's and subscriber's counters.
func (s *System) Stats() []metrics.NodeStats { return s.collector.Snapshot() }

// FlowStats snapshots every bounded queue on the delivery path — one
// entry per actor mailbox ("mailbox/<node>") and one per subscriber
// delivery queue ("delivery/<id>") — ordered by name.
func (s *System) FlowStats() []flow.Snapshot {
	out := make([]flow.Snapshot, 0, len(s.actors))
	for id, a := range s.actors {
		out = append(out, a.inbox.Snapshot("mailbox/"+string(id)))
	}
	s.mu.RLock()
	for id, h := range s.subs {
		out = append(out, h.q.Snapshot("delivery/"+string(id)))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Conformance exposes the system's type conformance (for subscriber-side
// perfect filtering).
func (s *System) Conformance() filter.Conformance { return s.conf }

// Close stops all goroutines and waits for them. Safe to call twice.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	handles := make([]*Handle, 0, len(s.subs))
	for _, h := range s.subs {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	for _, h := range handles {
		h.stop()
	}
}
