package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eventsys/internal/broker"
	"eventsys/internal/event"
	"eventsys/internal/index"
)

// bed is one workload's running topology: real brokers on loopback, the
// one publisher, every subscriber with its checker.
type bed struct {
	sp *spec
	in *inputs
	or *oracle

	trace   bool
	servers []*broker.Server
	pub     *broker.Publisher
	clients []*broker.Subscriber // by subscriber index; nil for raw sinks
	sinks   []*sink              // by subscriber index; nil for clients
	subs    []*subState
	record  atomic.Bool
	arrived chan struct{} // 1-token signal: some subscriber saw a sentinel
	dir     string        // DataDir parent, removed on close

	// publisher-goroutine state
	seq       uint64
	pubErrs   uint64
	batch     []*event.Event
	baselines []tally
}

// due reads the due time the harness stamped into a payload.
func due(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p)) }

// setUp boots the brokers, advertises, connects every subscriber and
// proves each path with a delivered probe. It is the whole of what
// setup_s times.
func setUp(sp *spec, in *inputs, or *oracle, trace bool, tmp string) (b *bed, err error) {
	b = &bed{sp: sp, in: in, or: or, trace: trace, arrived: make(chan struct{}, 1)}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.dir, err = os.MkdirTemp(tmp, sp.name+"-"); err != nil {
		return b, err
	}
	for _, bs := range sp.brokers {
		cfg := broker.ServerConfig{
			ID: bs.id, Stage: bs.stage, ListenAddr: "127.0.0.1:0",
			Engine: index.KindIndexed, HeartbeatInterval: -1, TTL: 0,
			PeerMaxStage: sp.maxStage, Trace: trace,
		}
		if bs.parent >= 0 {
			cfg.ParentAddr = b.servers[bs.parent].Addr()
		}
		for _, p := range bs.peers {
			cfg.Peers = append(cfg.Peers, b.servers[p].Addr())
		}
		if bs.durable {
			// SyncEvery -1: the page cache, not the disk, is measured.
			cfg.DataDir, cfg.SyncEvery = filepath.Join(b.dir, bs.id), -1
		}
		srv, err := broker.Serve(cfg)
		if err != nil {
			return b, err
		}
		b.servers = append(b.servers, srv)
	}
	if err = b.awaitTopology(); err != nil {
		return b, err
	}
	if b.pub, err = broker.DialPublisher(b.servers[0].Addr(), "pub"); err != nil {
		return b, err
	}
	for _, ad := range in.ads {
		if err = b.pub.Advertise(ad); err != nil {
			return b, err
		}
		for _, srv := range b.servers {
			if err = await(func() bool { return srv.HasAdvertisement(ad.Class) }); err != nil {
				return b, fmt.Errorf("advertisement %s never reached a broker: %w", ad.Class, err)
			}
		}
	}
	if err = b.connect(); err != nil {
		return b, err
	}
	return b, b.probe()
}

// nap blocks the calling thread for about d. time.Sleep would round a
// short sleep up to a millisecond whenever the scheduler is idle (it
// waits in the network poller, whose timeout counts milliseconds), and
// set-up would then be timed in poll intervals.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // a short or interrupted nap only polls sooner
}

// await polls cond for up to ten seconds.
func await(cond func() bool) error {
	for start := now(); !cond(); nap(50 * time.Microsecond) {
		if time.Duration(now()-start) > 10*time.Second {
			return errors.New("timed out")
		}
	}
	return nil
}

// awaitTopology waits until every child has joined its parent and every
// peer link is up and elected on both sides.
func (b *bed) awaitTopology() error {
	children := make([]int, len(b.servers))
	links := make([]int, len(b.servers))
	for i, bs := range b.sp.brokers {
		if bs.parent >= 0 {
			children[bs.parent]++
		}
		for _, p := range bs.peers {
			links[i]++
			links[p]++
		}
	}
	for i, srv := range b.servers {
		err := await(func() bool {
			if srv.ChildBrokers() != children[i] {
				return false
			}
			active := 0
			for _, ps := range srv.PeerStats() {
				if ps.Up && ps.Active {
					active++
				}
			}
			return active == links[i]
		})
		if err != nil {
			return fmt.Errorf("topology at %s never formed: %w", b.sp.brokers[i].id, err)
		}
	}
	return nil
}

// connect dials every subscriber, raw sinks concurrently.
func (b *bed) connect() error {
	n := len(b.in.subs)
	b.clients = make([]*broker.Subscriber, n)
	b.sinks = make([]*sink, n)
	b.subs = make([]*subState, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, s := range b.in.subs {
		st := &subState{expect: b.or.expect[i], regular: b.in.regular, record: &b.record, arrived: b.arrived, spans: b.trace}
		b.subs[i] = st
		addr := b.servers[s.at].Addr()
		if s.kind == subClient {
			b.clients[i], errs[i] = broker.DialSubscriber(addr, s.id, s.filters[0], broker.SubscriberOptions{},
				func(e *event.Event) { st.deliver(e.ID, due(e.Payload)) })
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.sinks[i], errs[i] = b.dialSink(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *bed) dialSink(i int) (*sink, error) {
	s, st := b.in.subs[i], b.subs[i]
	return dialSink(b.servers[s.at].Addr(), s.id, s.filters,
		func(r *event.Raw) { st.deliver(r.EventID(), due(r.Payload())) })
}

// stamp readies pool entry idx for publishing: the next sequence number
// in its ID, its due time in its payload, one more publish in the
// oracle's count.
func (b *bed) stamp(idx int, dueAt int64) *event.Event {
	b.seq++
	e := b.in.events[idx]
	e.ID = eventID(b.seq, idx)
	binary.LittleEndian.PutUint64(e.Payload, uint64(dueAt))
	b.or.published[idx]++
	return e
}

// next stamps the regular pool entry the sequence cycles onto.
func (b *bed) next(dueAt int64) *event.Event {
	return b.stamp(int(b.seq%uint64(b.in.regular)), dueAt)
}

func (b *bed) publish(e *event.Event) {
	if err := b.pub.Publish(e); err != nil {
		b.pubErrs++
	}
}

// sentinels publishes one round of sentinels and returns the sequence
// number of its first event. A subscriber that has seen a sentinel of
// this round has, by per-path FIFO, seen everything published before it.
func (b *bed) sentinels() uint64 {
	round := b.seq + 1
	for idx := b.in.regular; idx < len(b.in.events); idx++ {
		b.publish(b.stamp(idx, now()))
	}
	return round
}

// drained reports whether every subscriber (but skip) has seen a
// sentinel of the round.
func (b *bed) drained(round uint64, skip int) bool {
	for i, st := range b.subs {
		if i != skip && st.seenSentinel.Load() < round {
			return false
		}
	}
	return true
}

// awaitRound waits until the round is drained or the timeout passes,
// woken by each sentinel's arrival.
func (b *bed) awaitRound(round uint64, timeout time.Duration, skip int) bool {
	expired := time.After(timeout)
	for !b.drained(round, skip) {
		select {
		case <-b.arrived:
		case <-expired:
			return b.drained(round, skip)
		}
	}
	return true
}

// drain publishes a sentinel round and waits for it everywhere.
func (b *bed) drain(timeout time.Duration) error {
	if !b.awaitRound(b.sentinels(), timeout, -1) {
		return fmt.Errorf("backlog not drained %v after the phase ended", timeout)
	}
	return nil
}

// probeEvery is how often probe publishes a sentinel round. Set-up of a
// small topology takes a millisecond or two, and its time is read off the
// round that got through, so the rounds are a twentieth of that apart.
const probeEvery = 100 * time.Microsecond

// probe publishes a sentinel round every probeEvery until one arrives on
// every path: subscription state spreads between brokers asynchronously,
// so early rounds may be dropped where the interest is not yet known.
// Then it takes the oracle's baseline, so probes never count.
func (b *bed) probe() error {
	start := now()
	for arrived := false; !arrived; {
		if time.Duration(now()-start) > 10*time.Second {
			return errors.New("probe events never arrived on every path")
		}
		round := b.sentinels()
		// Polled with nap: a Go timer under a millisecond waits a whole one.
		for sent := now(); !arrived && time.Duration(now()-sent) < probeEvery; nap(10 * time.Microsecond) {
			arrived = b.drained(round, -1)
		}
	}
	clear(b.or.published)
	b.baselines = b.tallies()
	return nil
}

// tallies reads every subscriber's tally; call only after a drain.
func (b *bed) tallies() []tally {
	out := make([]tally, len(b.subs))
	for i, st := range b.subs {
		out[i] = st.t
	}
	return out
}

// judge compares everything delivered since the probe with the oracle.
func (b *bed) judge() verdict {
	ids := make([]string, len(b.subs))
	ts := b.tallies()
	for i := range ts {
		ids[i] = b.in.subs[i].id
		ts[i] = ts[i].sub(b.baselines[i])
	}
	return b.or.judge(ids, ts, b.pubErrs)
}

// close stops every client and broker and removes the data directory.
func (b *bed) close() {
	for _, c := range b.clients {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range b.sinks {
		if s != nil {
			s.sever()
		}
	}
	if b.pub != nil {
		b.pub.Close()
	}
	for i := len(b.servers) - 1; i >= 0; i-- {
		b.servers[i].Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}
