package broker

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/testutil"
	"eventsys/internal/transport"
)

// Control-plane and failover tests: runtime re-peering, the spanning-tree
// election over redundant meshes, broker-death failover, and the
// wire-level link maintenance paths (duplicate connections, saturated
// control channels).

func TestJitterBackoff(t *testing.T) {
	rng := rand.New(rand.NewPCG(addrSeed("127.0.0.1:7001"), 0))
	const d = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		if got := jitterBackoff(rng, d); got < d/2 || got >= d {
			t.Fatalf("jitter %v outside [%v, %v)", got, d/2, d)
		}
	}
	// A delay too small to halve passes through instead of jittering to
	// zero (zero-floor jitter busy-dials).
	if got := jitterBackoff(rng, 1); got != 1 {
		t.Errorf("jitterBackoff(1ns) = %v, want 1ns", got)
	}
	// Same seed, same sequence: each worker's jitter stream is
	// reproducible under a fixed process seed.
	a := rand.New(rand.NewPCG(7, addrSeed("x")))
	b := rand.New(rand.NewPCG(7, addrSeed("x")))
	for i := 0; i < 10; i++ {
		if x, y := jitterBackoff(a, d), jitterBackoff(b, d); x != y {
			t.Fatalf("same seed diverged: %v vs %v", x, y)
		}
	}
}

// TestControlPlaneRuntimeRePeering drives the reconciler through a full
// add → use → remove cycle with no restart: AddPeer dials and federates,
// RemovePeer hangs up and forgets the intent.
func TestControlPlaneRuntimeRePeering(t *testing.T) {
	a := startPeer(t, "A", ServerConfig{})
	b := startPeer(t, "B", ServerConfig{})
	if got := b.IntendedPeers(); len(got) != 0 {
		t.Fatalf("fresh broker intends peers %v", got)
	}

	b.AddPeer(a.Addr())
	waitPeersUp(t, b, 1)
	waitPeersUp(t, a, 1)
	if got := b.IntendedPeers(); len(got) != 1 || got[0] != a.Addr() {
		t.Fatalf("intended peers = %v, want [%s]", got, a.Addr())
	}
	b.AddPeer(a.Addr()) // idempotent
	if got := b.IntendedPeers(); len(got) != 1 {
		t.Fatalf("re-adding an intended peer grew the set: %v", got)
	}

	// The runtime-added link carries traffic like a configured one.
	var got collector
	sub, err := DialSubscriber(a.Addr(), "carol",
		filter.MustParseFilter(`x = 1`), SubscriberOptions{}, got.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, "B to learn carol's interest", func() bool { return b.FederationFilters() == 1 })
	pub, err := DialPublisher(b.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(event.NewBuilder("T").Int("x", 1).ID(1).Build()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery over the runtime-added link", func() bool { return got.len() == 1 })

	b.RemovePeer(a.Addr())
	if got := b.IntendedPeers(); len(got) != 0 {
		t.Fatalf("intended peers after remove = %v, want none", got)
	}
	waitFor(t, "B to hang up", func() bool {
		for _, ps := range b.PeerStats() {
			if ps.Up {
				return false
			}
		}
		return true
	})
	waitFor(t, "A to see the hangup", func() bool {
		for _, ps := range a.PeerStats() {
			if ps.Up {
				return false
			}
		}
		return true
	})
	if st := b.TopologyStats(); st.Reconciles < 2 {
		t.Errorf("reconciles = %d, want at least one start and one stop pass", st.Reconciles)
	}
}

// ringOf3 wires the smallest redundant mesh: A — B — C — A. The election
// must keep the two lexicographically lowest edges (A,B) and (A,C)
// active and hold (B,C) as a standby failover path.
func ringOf3(t *testing.T, cfgA, cfgB, cfgC ServerConfig) (a, b, c *Server) {
	t.Helper()
	a = startPeer(t, "A", cfgA)
	b = startPeer(t, "B", cfgB, a.Addr())
	c = startPeer(t, "C", cfgC, a.Addr(), b.Addr())
	waitPeersUp(t, a, 2)
	waitPeersUp(t, b, 2)
	waitPeersUp(t, c, 2)
	waitRingElected(t, a, b, c)
	return a, b, c
}

// waitForDump is waitFor for the failover waits that time out one run in
// four (ROADMAP item 0): on timeout the failure message carries every
// given broker's /debug/status view — topology with the pendingResync
// and promoted sets, per-link state, per-connection socket counters — so
// the stuck state is on the page instead of needing a reproduction.
func waitForDump(t *testing.T, what string, cond func() bool, brokers ...*Server) {
	t.Helper()
	deadline := time.Now().Add(testutil.WaitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			var dump strings.Builder
			for _, s := range brokers {
				view, _ := json.MarshalIndent(s.status(s.PeerStats(), s.EngineShape()), "", "  ")
				fmt.Fprintf(&dump, "\n%s: %s", s.cfg.ID, view)
			}
			t.Fatalf("timed out waiting for %s%s", what, dump.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitRingElected(t *testing.T, a, b, c *Server) {
	t.Helper()
	waitFor(t, "the ring election to converge", func() bool {
		sa, sb, sc := a.TopologyStats(), b.TopologyStats(), c.TopologyStats()
		return fmt.Sprint(sa.ActivePeers) == "[B C]" &&
			fmt.Sprint(sb.ActivePeers) == "[A]" && fmt.Sprint(sb.StandbyPeers) == "[C]" &&
			fmt.Sprint(sc.ActivePeers) == "[A]" && fmt.Sprint(sc.StandbyPeers) == "[B]" &&
			sa.PendingResync+sb.PendingResync+sc.PendingResync == 0
	})
}

func TestRingElectsSpanningTree(t *testing.T) {
	a, b, c := ringOf3(t, ServerConfig{}, ServerConfig{}, ServerConfig{})
	for _, s := range []*Server{a, b, c} {
		st := s.TopologyStats()
		if st.Brokers != 3 || st.Edges != 3 {
			t.Errorf("%s database: %d brokers, %d edges, want 3 and 3", st.Self, st.Brokers, st.Edges)
		}
		if st.Failovers != 0 {
			t.Errorf("%s ran %d failovers on a healthy ring", st.Self, st.Failovers)
		}
	}
}

// TestBrokerDeathFailover is the PR's headline scenario: a ring loses a
// broker, the standby edge promotes, traffic keeps flowing exactly once
// and in order — then the broker returns and the original tree is
// restored, again without duplicates.
func TestBrokerDeathFailover(t *testing.T) {
	a, b, c := ringOf3(t, ServerConfig{}, ServerConfig{}, ServerConfig{})

	var got collector
	sub, err := DialSubscriber(b.Addr(), "carol",
		filter.MustParseFilter(`x = 1`), SubscriberOptions{}, got.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Carol's interest reaches C via the tree (B → A → C).
	waitFor(t, "C to learn carol's interest", func() bool { return c.FederationFilters() >= 1 })
	pub, err := DialPublisher(c.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(event.NewBuilder("T").Int("x", 1).ID(1).Build()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-death delivery via the hub", func() bool { return got.len() == 1 })

	// Kill the hub. Both survivors lose their active link; the standby
	// (B,C) edge must promote and complete the failover handshake.
	addr := a.Addr()
	a.Close()
	waitForDump(t, "C to fail over onto the standby edge", func() bool {
		st := c.TopologyStats()
		return st.Failovers >= 1 && st.PendingResync == 0 && fmt.Sprint(st.ActivePeers) == "[B]"
	}, b, c)
	waitForDump(t, "B to promote the standby edge", func() bool {
		st := b.TopologyStats()
		return st.PendingResync == 0 && fmt.Sprint(st.ActivePeers) == "[C]"
	}, b, c)

	for id := uint64(2); id <= 3; id++ {
		if err := pub.Publish(event.NewBuilder("T").Int("x", 1).ID(id).Build()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-death delivery over the promoted edge", func() bool { return got.len() == 3 })
	if ids := got.ids(); fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("delivered %v, want [1 2 3] exactly once in order", ids)
	}

	// The hub returns on its old address: the survivors' dial workers
	// reconnect, the election restores the original tree, and the healed
	// (B,C) edge demotes — its interests withdrawn, so the next event
	// still arrives exactly once.
	a2 := startPeer(t, "A", ServerConfig{ListenAddr: addr})
	waitPeersUp(t, a2, 2)
	waitRingElected(t, a2, b, c)
	waitFor(t, "C to re-learn carol's interest via the restored hub", func() bool {
		return c.FederationFilters() >= 1
	})
	if err := pub.Publish(event.NewBuilder("T").Int("x", 1).ID(4).Build()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restore delivery via the hub", func() bool { return got.len() == 4 })
	time.Sleep(20 * time.Millisecond) // a duplicate would trail the legitimate copy
	if ids := got.ids(); fmt.Sprint(ids) != "[1 2 3 4]" {
		t.Fatalf("delivered %v, want [1 2 3 4] exactly once in order", ids)
	}
}

// TestFailoverDrainsSpool pins the orphaned-spool re-route: events a dead
// active link spooled for replay must drain onto the promoted path at
// failover completion (when they match its freshly resynced interests)
// instead of waiting forever for a broker that is not coming back.
func TestFailoverDrainsSpool(t *testing.T) {
	dir := t.TempDir()
	a, b, c := ringOf3(t, ServerConfig{}, ServerConfig{},
		ServerConfig{DataDir: filepath.Join(dir, "C")})

	var got collector
	sub, err := DialSubscriber(b.Addr(), "carol",
		filter.MustParseFilter(`x = 1`), SubscriberOptions{}, got.add)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, "C to learn carol's interest", func() bool { return c.FederationFilters() >= 1 })

	// Seed C's spool for the A link — the state left behind when frames
	// queued for A were salvaged after its connection died mid-replay.
	evs := []*event.Raw{
		event.EncodeRaw(event.NewBuilder("T").Int("x", 1).ID(10).Build()),
		event.EncodeRaw(event.NewBuilder("T").Int("x", 1).ID(11).Build()),
		event.EncodeRaw(event.NewBuilder("T").Int("x", 2).ID(12).Build()), // matches no one: must re-spool
	}
	ok := c.coreQuery(func() {
		if !c.storeBatchFor(spoolKey("A"), evs) {
			t.Error("spool seed failed")
		}
	})
	if !ok {
		t.Fatal("core query failed")
	}

	a.Close()
	waitForDump(t, "C to complete the failover", func() bool {
		st := c.TopologyStats()
		return st.Failovers >= 1 && st.PendingResync == 0 && fmt.Sprint(st.ActivePeers) == "[B]"
	}, b, c)
	if st := c.TopologyStats(); st.Reroutes != 2 {
		t.Errorf("reroutes = %d, want 2 (the unmatched orphan re-spools)", st.Reroutes)
	}
	waitFor(t, "orphaned events to reach carol via the promoted edge", func() bool {
		return got.len() == 2
	})
	if ids := got.ids(); fmt.Sprint(ids) != "[10 11]" {
		t.Fatalf("delivered %v, want [10 11] in spool order", ids)
	}
}

// TestSendCtrlSaturationRecyclesLink pins the recycle path regression: a
// control-channel send that finds the channel saturated must detach the
// connection from the link (link.pc = nil, synced = false) while closing
// it — leaving the dead conn attached would shadow the redial and wedge
// the link until a TCP timeout.
func TestSendCtrlSaturationRecyclesLink(t *testing.T) {
	a := startPeer(t, "A", ServerConfig{})
	b := startPeer(t, "B", ServerConfig{}, a.Addr())
	defer b.Close()
	waitPeersUp(t, a, 1)
	waitPeersUp(t, b, 1)

	// Inside A's core: stop the writer so nothing drains, fill the
	// control channel, then send one more control frame.
	ok := a.coreQuery(func() {
		link := a.peerLinks["B"]
		pc := link.pc
		pc.close()
		<-pc.writerDone
		for pc.tryCtl(transport.PeerPing{}) {
		}
		a.sendCtrl(link, transport.PeerPing{})
		if link.pc != nil {
			t.Error("saturated control send left the dead connection attached to the link")
		}
		if link.synced {
			t.Error("recycled link still marked synced")
		}
	})
	if !ok {
		t.Fatal("core query failed")
	}
	// B's dial worker redials; the fresh connection must promote and
	// resync — proving the recycle left the link claimable.
	waitFor(t, "the link to recover on a fresh connection", func() bool {
		st := a.TopologyStats()
		return len(st.ActivePeers) == 1 && st.PendingResync == 0
	})
}

// fakePeer is a raw transport connection handshaking as a federation
// peer: it lets a test script exact wire sequences (duplicate handshakes,
// hand-built SubSets) that a real broker won't produce on demand.
type fakePeer struct {
	t    *testing.T
	conn net.Conn

	mu     sync.Mutex
	events []uint64
	closed chan struct{}
}

func dialFakePeer(t *testing.T, addr, id string) *fakePeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePeer{t: t, conn: conn, closed: make(chan struct{})}
	t.Cleanup(func() { conn.Close() })
	fp.send(transport.PeerHello{ID: id})
	go fp.drain()
	return fp
}

func (fp *fakePeer) send(m transport.Message) {
	fp.t.Helper()
	if err := transport.WriteFrame(fp.conn, m); err != nil {
		fp.t.Fatalf("fake peer write: %v", err)
	}
}

// drain reads frames until the broker closes the connection, keeping the
// IDs of forwarded events and discarding control traffic.
func (fp *fakePeer) drain() {
	for {
		m, err := transport.ReadFrame(fp.conn)
		if err != nil {
			close(fp.closed)
			return
		}
		fp.mu.Lock()
		switch fw := m.(type) {
		case transport.Forward:
			fp.events = append(fp.events, fw.Event.EventID())
		case transport.ForwardBatch:
			for _, ev := range fw.Events {
				fp.events = append(fp.events, ev.EventID())
			}
		}
		fp.mu.Unlock()
	}
}

func (fp *fakePeer) ids() []uint64 {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return append([]uint64(nil), fp.events...)
}

func (fp *fakePeer) dead() bool {
	select {
	case <-fp.closed:
		return true
	default:
		return false
	}
}

// TestDuplicatePeerConnReplaced pins the latest-handshake-wins rule: a
// second connection claiming an already-connected peer ID replaces the
// first (which is closed), the link's learned interests survive the
// swap, and subsequent forwards leave on the new connection only.
func TestDuplicatePeerConnReplaced(t *testing.T) {
	b := startPeer(t, "B", ServerConfig{})
	p1 := dialFakePeer(t, b.Addr(), "X")
	waitPeersUp(t, b, 1)
	// X advertises its adjacency so the election trusts the edge, then
	// hands B one interest over the first connection.
	p1.send(transport.LinkState{Origin: "X", Seq: 1, Peers: []string{"B"}})
	p1.send(transport.SubSet{Entries: []transport.SubEntry{
		{Hops: 1, Filter: filter.MustParseFilter(`x = 1`)},
	}})
	waitFor(t, "B to learn X's interest", func() bool { return b.FederationFilters() == 1 })

	// Second handshake as the same peer: a reconnect racing its own
	// half-dead predecessor.
	p2 := dialFakePeer(t, b.Addr(), "X")
	waitFor(t, "the first connection to be closed", p1.dead)
	waitPeersUp(t, b, 1)
	if n := b.FederationFilters(); n != 1 {
		t.Fatalf("interests after replacement = %d, want 1 (state is link-keyed, not conn-keyed)", n)
	}

	pub, err := DialPublisher(b.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(event.NewBuilder("T").Int("x", 1).ID(5).Build()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the forward to arrive on the replacement connection", func() bool {
		return len(p2.ids()) == 1
	})
	if ids := p2.ids(); ids[0] != 5 {
		t.Fatalf("replacement connection got event %d, want 5", ids[0])
	}
	if n := len(p1.ids()); n != 0 {
		t.Errorf("old connection received %d forwards after replacement", n)
	}
}
