package broker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/partition"
	"eventsys/internal/transport"
	"eventsys/internal/typing"
)

// Publisher is a client that injects events (and advertisements) at a
// broker, normally the root. Safe for concurrent use.
//
// Publishers participate in credit-based admission control: each broker
// connection grants an event credit window on connect and replenishes
// it as that broker's core actually processes events, so Publish blocks
// — instead of flooding a saturated hierarchy — once the window is
// exhausted. A broker that never grants leaves the publisher ungoverned
// (legacy behavior).
//
// Against a partitioned replica group the publisher becomes
// partition-aware: the first publish lands at the bootstrap broker,
// which absorbs it and answers with a PartitionRedirect carrying the
// group's partition map. From then on the publisher maintains one
// connection per owning replica and fans each event directly to its
// partition's owner, stamping frames with the map epoch; a broker whose
// map has moved on answers with a fresh redirect. Unpartitioned brokers
// never redirect, and the publisher stays on its single bootstrap
// connection.
type Publisher struct {
	id   string
	boot string // bootstrap broker address

	mu    sync.Mutex
	conns map[string]*pubConn
	seq   uint64

	pmap   atomic.Pointer[partition.Map] // nil until the first redirect
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// pubConn is one broker connection with its credit gate.
type pubConn struct {
	c    net.Conn
	gate *flow.Gate
}

// DialPublisher connects a publisher to the broker at addr.
func DialPublisher(addr, id string) (*Publisher, error) {
	p := &Publisher{
		id:     id,
		boot:   addr,
		conns:  make(map[string]*pubConn),
		closed: make(chan struct{}),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.dialLocked(addr); err != nil {
		return nil, err
	}
	return p, nil
}

// dialLocked opens, registers and starts reading a broker connection.
// Callers hold p.mu.
func (p *Publisher) dialLocked(addr string) (*pubConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
	}
	if err := transport.WriteFrame(c, transport.Hello{Kind: transport.PeerPublisher, ID: p.id}); err != nil {
		c.Close()
		return nil, fmt.Errorf("broker: publisher handshake: %w", err)
	}
	pc := &pubConn{c: c, gate: flow.NewGate()}
	p.conns[addr] = pc
	p.wg.Add(1)
	go p.readLoop(pc)
	return pc, nil
}

// connFor returns the connection to addr, dialing one on first use; a
// failed dial falls back to the bootstrap connection (whose broker
// absorbs misrouted events regardless).
func (p *Publisher) connFor(addr string) *pubConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc, ok := p.conns[addr]; ok {
		return pc
	}
	pc, err := p.dialLocked(addr)
	if err != nil {
		return p.conns[p.boot]
	}
	return pc
}

// routeFor picks the connection for one event: its partition owner's
// under the current map, the bootstrap connection without one.
func (p *Publisher) routeFor(e event.View) (*pubConn, uint64) {
	m := p.pmap.Load()
	if m == nil || len(m.Replicas) == 0 {
		return p.connFor(p.boot), 0
	}
	r := m.OwnerOf(e)
	if r.Addr == "" {
		return p.connFor(p.boot), m.Epoch
	}
	return p.connFor(r.Addr), m.Epoch
}

// readLoop consumes one connection's broker frames: credit grants
// (acknowledging the first, so the broker knows this publisher honors
// admission control) and partition redirects, which install the
// broker's current partition map for every subsequent publish.
func (p *Publisher) readLoop(pc *pubConn) {
	defer p.wg.Done()
	acked := false
	fr := transport.NewFrameReader(pc.c)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			return
		}
		switch f := m.(type) {
		case transport.Credit:
			pc.gate.Grant(int(f.Grant))
			if !acked {
				acked = true
				p.mu.Lock()
				_ = transport.WriteFrame(pc.c, transport.CreditAck{Window: f.Grant})
				p.mu.Unlock()
			}
		case transport.PartitionRedirect:
			reps := make([]partition.Replica, len(f.Replicas))
			for i, r := range f.Replicas {
				reps[i] = partition.Replica{ID: r.ID, Addr: r.Addr}
			}
			pm := partition.New(int(f.Partitions), reps)
			// The owners are recomputed locally (partition.New is the
			// same pure function the brokers run); the wire epoch is
			// authoritative so stamped frames always echo the sender.
			pm.Epoch = f.Epoch
			p.pmap.Store(pm)
		}
	}
}

// CreditWaits reports how often Publish had to wait for broker credit —
// the admission-control backpressure this publisher has experienced,
// summed across its broker connections.
func (p *Publisher) CreditWaits() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, pc := range p.conns {
		n += pc.gate.Waits()
	}
	return n
}

// PartitionEpoch returns the partition-map epoch the publisher is
// currently routing under (0 before any redirect).
func (p *Publisher) PartitionEpoch() uint64 {
	if m := p.pmap.Load(); m != nil {
		return m.Epoch
	}
	return 0
}

// Publish sends one event to its partition owner (or the bootstrap
// broker when unpartitioned). The event receives a publisher-local
// sequence ID when it has none. Publish blocks while the target
// broker's credit window is exhausted (a saturated hierarchy throttles
// its publishers).
func (p *Publisher) Publish(e *event.Event) error {
	if e == nil {
		return fmt.Errorf("broker: nil event")
	}
	pc, epoch := p.routeFor(e)
	if !pc.gate.Acquire(1, p.closed, nil) {
		return fmt.Errorf("broker: publisher closed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.ID == 0 {
		p.seq++
		e.ID = p.seq
	}
	// The one and only encode of this event's life: brokers match, batch,
	// forward and persist these bytes without ever re-encoding them.
	return transport.WriteFrame(pc.c, transport.Publish{Event: event.EncodeRaw(e), Epoch: epoch})
}

// PublishBatch sends a run of events in one wire frame per target
// broker, amortizing framing and syscall cost; each broker processes
// its run in slice order, so per-source order holds within every
// partition (cross-partition order is the price of fanning in). Events
// without an ID receive publisher-local sequence IDs. Like Publish, it
// blocks while a target's credit window is exhausted (a batch may
// overshoot the remaining window once; the deficit repays before the
// next send). On error, runs already written to other brokers stay
// written.
func (p *Publisher) PublishBatch(events []*event.Event) error {
	if len(events) == 0 {
		return nil
	}
	for _, e := range events {
		if e == nil {
			return fmt.Errorf("broker: nil event in batch")
		}
	}
	m := p.pmap.Load()
	if m == nil || len(m.Replicas) == 0 {
		return p.publishRun(p.connFor(p.boot), 0, events)
	}
	// Bucket per owning replica, preserving slice order within each.
	order := make([]*pubConn, 0, len(m.Replicas))
	buckets := make(map[*pubConn][]*event.Event, len(m.Replicas))
	for _, e := range events {
		pc, _ := p.routeFor(e)
		if _, seen := buckets[pc]; !seen {
			order = append(order, pc)
		}
		buckets[pc] = append(buckets[pc], e)
	}
	for _, pc := range order {
		if err := p.publishRun(pc, m.Epoch, buckets[pc]); err != nil {
			return err
		}
	}
	return nil
}

// publishRun sends one batch run to one broker under its credit gate.
func (p *Publisher) publishRun(pc *pubConn, epoch uint64, events []*event.Event) error {
	if !pc.gate.Acquire(len(events), p.closed, nil) {
		return fmt.Errorf("broker: publisher closed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	raws := make([]*event.Raw, len(events))
	for i, e := range events {
		if e.ID == 0 {
			p.seq++
			e.ID = p.seq
		}
		raws[i] = event.EncodeRaw(e)
	}
	if len(raws) == 1 {
		return transport.WriteFrame(pc.c, transport.Publish{Event: raws[0], Epoch: epoch})
	}
	return transport.WriteFrame(pc.c, transport.PublishBatch{Events: raws, Epoch: epoch})
}

// Advertise announces an event class schema at the bootstrap broker;
// the brokers disseminate it to every node.
func (p *Publisher) Advertise(ad *typing.Advertisement) error {
	if err := ad.Validate(); err != nil {
		return err
	}
	pc := p.connFor(p.boot)
	p.mu.Lock()
	defer p.mu.Unlock()
	return transport.WriteFrame(pc.c, transport.Advertise{Ad: ad})
}

// Close terminates every broker connection, waking any Publish blocked
// on credit.
func (p *Publisher) Close() error {
	var err error
	p.once.Do(func() {
		close(p.closed)
		p.mu.Lock()
		for _, pc := range p.conns {
			if cerr := pc.c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return err
}

// SubscriberOptions tune a subscriber client.
type SubscriberOptions struct {
	// RenewEvery sends lease renewals at this period; 0 disables them
	// (use with brokers running without TTL).
	RenewEvery time.Duration
	// Conformance is used for the client-side perfect filtering; nil
	// means exact type matching.
	Conformance filter.Conformance
	// MaxRedirects bounds the join-At walk (default 8).
	MaxRedirects int
	// CreditWindow is the event credit window this subscriber grants its
	// broker (0 = the flow default, 1024). The grant replenishes as the
	// handler consumes events, so a slow handler throttles the broker's
	// writer — which applies the broker's flow policy — instead of
	// letting TCP buffers absorb unbounded backlog. Negative disables
	// credit grants (legacy ungoverned delivery).
	CreditWindow int
	// Group names a consumer group to join instead of subscribing
	// individually: the group's members split the matching stream —
	// each event goes to exactly one member — and share one durable
	// cursor under the group's identity. Every member must dial the
	// same broker (a group never splits across brokers; the placement
	// walk is bypassed). Deliveries are leased: the client acknowledges
	// each one after the handler returns, and unacknowledged events
	// redeliver to surviving members when this member dies or stalls
	// past the broker's lease TTL. At-least-once, unordered across
	// members. Empty (the default) subscribes individually.
	Group string
}

// Subscriber is a client subscription: it walks the placement protocol
// from the root, stays connected to the accepting broker, applies the
// original filter end-to-end and hands matching events to the handler.
type Subscriber struct {
	id       string
	original *filter.Filter
	stored   *filter.Filter
	conn     net.Conn
	opts     SubscriberOptions

	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once
	writeMu sync.Mutex

	meter *flow.Meter // nil when credit grants are disabled

	mu        sync.Mutex
	delivered uint64
	received  uint64
}

// DialSubscriber subscribes via the broker at rootAddr, following
// redirects to the accepting node, and starts delivering matching events
// to handler on a dedicated goroutine.
func DialSubscriber(rootAddr, id string, f *filter.Filter, opts SubscriberOptions, handler func(*event.Event)) (*Subscriber, error) {
	if f == nil {
		return nil, fmt.Errorf("broker: nil filter")
	}
	if handler == nil {
		return nil, fmt.Errorf("broker: nil handler")
	}
	if opts.MaxRedirects <= 0 {
		opts.MaxRedirects = 8
	}
	sub := &Subscriber{id: id, original: f, opts: opts, closed: make(chan struct{})}

	addr := rootAddr
	for hop := 0; hop < opts.MaxRedirects; hop++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
		}
		if err := transport.WriteFrame(c, transport.Hello{Kind: transport.PeerSubscriber, ID: id}); err != nil {
			c.Close()
			return nil, fmt.Errorf("broker: subscriber handshake: %w", err)
		}
		if err := transport.WriteFrame(c, transport.Subscribe{SubscriberID: id, Filter: f, Group: opts.Group}); err != nil {
			c.Close()
			return nil, fmt.Errorf("broker: subscribe: %w", err)
		}
		reply, err := readReply(c)
		if err != nil {
			c.Close()
			return nil, err
		}
		if reply.Accepted {
			sub.conn = c
			sub.stored = reply.Stored
			if opts.CreditWindow >= 0 {
				// Grant the broker its initial event window; the read
				// loop replenishes it as the handler consumes, making a
				// slow handler visible — and governable — at the broker.
				sub.meter = flow.NewMeter(opts.CreditWindow)
				if err := transport.WriteFrame(c, transport.Credit{Grant: uint32(sub.meter.Window())}); err != nil {
					c.Close()
					return nil, fmt.Errorf("broker: credit grant: %w", err)
				}
			}
			sub.wg.Add(1)
			go sub.readLoop(handler)
			if opts.RenewEvery > 0 {
				sub.wg.Add(1)
				go sub.renewLoop()
			}
			return sub, nil
		}
		c.Close()
		if reply.TargetAddr == "" {
			return nil, fmt.Errorf("broker: subscription rejected without redirect target")
		}
		addr = reply.TargetAddr
	}
	return nil, fmt.Errorf("broker: too many redirects (last target %s)", addr)
}

// readReply reads frames until the subscribe reply arrives (events for
// an earlier incarnation of this subscriber ID may interleave). It reads
// with the one-shot ReadFrame, which takes nothing past the reply off the
// socket: the connection's buffered reader is only created afterwards, by
// the read loop, and a read-ahead here would be lost to it.
func readReply(c net.Conn) (transport.SubscribeReply, error) {
	deadline := time.Now().Add(10 * time.Second)
	_ = c.SetReadDeadline(deadline)
	defer c.SetReadDeadline(time.Time{})
	for {
		m, err := transport.ReadFrame(c)
		if err != nil {
			return transport.SubscribeReply{}, fmt.Errorf("broker: awaiting subscribe reply: %w", err)
		}
		if rep, ok := m.(transport.SubscribeReply); ok {
			return rep, nil
		}
	}
}

func (s *Subscriber) readLoop(handler func(*event.Event)) {
	defer s.wg.Done()
	fr := transport.NewFrameReader(s.conn)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			return
		}
		d, ok := m.(transport.Deliver)
		if !ok || d.Event == nil {
			continue
		}
		s.mu.Lock()
		s.received++
		s.mu.Unlock()
		// Perfect end-to-end filtering with the original filter, evaluated
		// over the raw wire view: an event that fails it is never decoded.
		if s.original.Matches(d.Event, s.opts.Conformance) {
			s.mu.Lock()
			s.delivered++
			s.mu.Unlock()
			// The process's only materialization of this event.
			handler(d.Event.Event())
		}
		// A group delivery (nonzero lease sequence) is acknowledged once
		// the handler has returned — whether or not the event survived
		// perfect filtering, or its lease would redeliver it forever.
		if d.Seq != 0 {
			s.writeMu.Lock()
			err := transport.WriteFrame(s.conn, transport.GroupAck{Seq: d.Seq})
			s.writeMu.Unlock()
			if err != nil {
				return
			}
		}
		// Replenish the broker's credit only after the handler returns:
		// delivery cost is the handler's cost, and a slow handler must
		// slow the grants. Every transmitted event repays credit,
		// whether or not it survived perfect filtering.
		if s.meter != nil {
			if g := s.meter.Consume(1); g > 0 {
				s.writeMu.Lock()
				err := transport.WriteFrame(s.conn, transport.Credit{Grant: uint32(g)})
				s.writeMu.Unlock()
				if err != nil {
					return
				}
			}
		}
	}
}

func (s *Subscriber) renewLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.RenewEvery)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.writeMu.Lock()
			err := transport.WriteFrame(s.conn, transport.Renew{ID: s.id, Filter: s.stored})
			s.writeMu.Unlock()
			if err != nil {
				return
			}
		}
	}
}

// Stats returns (received, delivered) counts: events reaching the client
// and events passing perfect filtering.
func (s *Subscriber) Stats() (received, delivered uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received, s.delivered
}

// StoredFilter returns the weakened filter the accepting broker stores.
func (s *Subscriber) StoredFilter() *filter.Filter { return s.stored }

// Close unsubscribes and tears the connection down.
func (s *Subscriber) Close() error {
	var err error
	s.once.Do(func() {
		close(s.closed)
		s.writeMu.Lock()
		err = transport.WriteFrame(s.conn, transport.Unsubscribe{ID: s.id, Filter: s.stored})
		s.writeMu.Unlock()
		s.conn.Close()
		s.wg.Wait()
	})
	return err
}
