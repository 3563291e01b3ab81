package broker

import (
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/transport"
)

// Writer coalescing tests. They drive Server.writeLoop over a net.Conn
// stub that records every Write call, with the queues filled before the
// loop starts, so what one drain takes is decided by the loop's rules and
// not by scheduling.

// countingConn is a net.Conn whose Write calls are recorded one by one.
// failAt > 0 makes that (1-based) Write fail without taking a byte; Read
// blocks until Close.
type countingConn struct {
	mu     sync.Mutex
	writes [][]byte
	failAt int
	closes int
	closed chan struct{}
}

func newCountingConn() *countingConn { return &countingConn{closed: make(chan struct{})} }

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, bytes.Clone(p))
	if len(c.writes) == c.failAt {
		return 0, errors.New("countingConn: injected write failure")
	}
	return len(p), nil
}

func (c *countingConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *countingConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closes++; c.closes == 1 {
		close(c.closed)
	}
	return nil
}

func (c *countingConn) LocalAddr() net.Addr              { return nil }
func (c *countingConn) RemoteAddr() net.Addr             { return nil }
func (c *countingConn) SetDeadline(time.Time) error      { return nil }
func (c *countingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

// snapshot returns the number of Write calls so far, their sizes, and
// the frames each carried, decoded.
func (c *countingConn) snapshot(t *testing.T) (sizes []int, frames [][]transport.Message) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writes {
		sizes = append(sizes, len(w))
		var ms []transport.Message
		for rd := bytes.NewReader(w); rd.Len() > 0; {
			m, err := transport.ReadFrame(rd)
			if err != nil {
				t.Fatalf("a write does not hold whole frames: %v", err)
			}
			ms = append(ms, m)
		}
		frames = append(frames, ms)
	}
	return sizes, frames
}

func (c *countingConn) frameCount(t *testing.T) int {
	_, frames := c.snapshot(t)
	n := 0
	for _, ms := range frames {
		n += len(ms)
	}
	return n
}

// stubbedWriter builds a connection over conn with n Deliver frames (IDs
// 1..n) already queued, ready for startWriter.
func stubbedWriter(t *testing.T, s *Server, conn net.Conn, n int) *peerConn {
	t.Helper()
	pc := s.newPeerConn(conn)
	for id := 1; id <= n; id++ {
		ev := event.EncodeRaw(event.NewBuilder("Tick").Int("x", int64(id)).ID(uint64(id)).Build())
		pc.out.Push(transport.Deliver{Event: ev})
	}
	return pc
}

func startWriter(s *Server, pc *peerConn) {
	s.wg.Add(1)
	go s.writeLoop(pc)
}

// deliveredIDs flattens decoded writes into the event IDs of their
// Deliver frames, failing on a control frame that trails an event.
func deliveredIDs(t *testing.T, frames [][]transport.Message) (ids []uint64, control int) {
	t.Helper()
	for _, ms := range frames {
		for _, m := range ms {
			if d, ok := m.(transport.Deliver); ok {
				ids = append(ids, d.Event.EventID())
			} else if control++; len(ids) > 0 {
				t.Fatalf("control frame %T written after %d events", m, len(ids))
			}
		}
	}
	return ids, control
}

func assertIDs(t *testing.T, ids []uint64, from, to int) {
	t.Helper()
	if len(ids) != to-from+1 {
		t.Fatalf("%d events written, want %d (IDs %d..%d)", len(ids), to-from+1, from, to)
	}
	for i, id := range ids {
		if id != uint64(from+i) {
			t.Fatalf("event %d has ID %d, want %d: queue order broken", i, id, from+i)
		}
	}
}

// TestWriteLoopCoalesces: a backlog with credit leaves in as few writes
// as the coalescing cap allows, control ahead of events, events in queue
// order, and the connection's counters say so.
func TestWriteLoopCoalesces(t *testing.T) {
	const n = 6000
	s := startPeer(t, "A", ServerConfig{FlowWindow: n})
	conn := newCountingConn()
	pc := stubbedWriter(t, s, conn, n)
	s.addGrant(pc, 7)
	pc.tryCtl(transport.PeerPing{})
	pc.tryCtl(transport.CreditAck{Window: 9})
	startWriter(s, pc)
	waitFor(t, "the backlog to be written", func() bool { return conn.frameCount(t) == n+3 })
	pc.close()
	<-pc.writerDone

	sizes, frames := conn.snapshot(t)
	total := 0
	for i, size := range sizes {
		total += size
		if i < len(sizes)-1 && size < writeCoalesce {
			t.Errorf("write %d of %d carried %d bytes: flushed below the cap with frames still queued", i+1, len(sizes), size)
		}
	}
	if max := (total + writeCoalesce - 1) / writeCoalesce; len(sizes) > max {
		t.Errorf("%d bytes left in %d writes, want at most %d", total, len(sizes), max)
	}
	if g, ok := frames[0][0].(transport.Credit); !ok || g.Grant != 7 {
		t.Errorf("first frame is %#v, want the owed Credit{7}", frames[0][0])
	}
	ids, control := deliveredIDs(t, frames)
	if control != 3 {
		t.Errorf("%d control frames written, want 3", control)
	}
	assertIDs(t, ids, 1, n)
	if io := pc.io.snapshot(); io.Writes != uint64(len(sizes)) || io.FramesWritten != n+3 {
		t.Errorf("connection counters say %d writes, %d frames; the socket saw %d and %d", io.Writes, io.FramesWritten, len(sizes), n+3)
	}
}

// TestWriteLoopStopsAtCredit: with credit for k of n queued events the
// writer sends exactly k, counts one credit wait, and on teardown leaves
// the other n-k — the parked one first — in pc.out for salvage.
func TestWriteLoopStopsAtCredit(t *testing.T) {
	const n, k = 100, 37
	s := startPeer(t, "A", ServerConfig{})
	conn := newCountingConn()
	pc := stubbedWriter(t, s, conn, n)
	pc.gate.Grant(k)
	startWriter(s, pc)
	waitFor(t, "the writer to run out of credit", func() bool { return s.Stats().CreditWaits == 1 })
	// A control frame still passes the parked event, alone in its write.
	pc.tryCtl(transport.PeerPing{})
	waitFor(t, "the control frame to pass", func() bool { return conn.frameCount(t) == k+1 })
	pc.close()
	<-pc.writerDone

	sizes, frames := conn.snapshot(t)
	if len(sizes) != 2 {
		t.Errorf("%d writes, want 2: the k events in one, the late control frame in another", len(sizes))
	}
	var events []uint64
	for _, m := range frames[0] {
		events = append(events, m.(transport.Deliver).Event.EventID())
	}
	assertIDs(t, events, 1, k)
	if got := s.Stats().CreditWaits; got != 1 {
		t.Errorf("credit waits = %d, want 1", got)
	}
	if got := pc.out.Len(); got != n-k {
		t.Fatalf("%d frames left in pc.out, want %d", got, n-k)
	}
	var left []uint64
	for m, ok := pc.out.TryPop(); ok; m, ok = pc.out.TryPop() {
		left = append(left, m.(transport.Deliver).Event.EventID())
	}
	assertIDs(t, left, k+1, n)
}

// TestWriteLoopWriteErrorMidDrain: a write that fails in the middle of a
// backlog tears the connection down once and costs the frames of that
// write only — the rest is salvaged into the durable backlog, uncounted
// as drops.
func TestWriteLoopWriteErrorMidDrain(t *testing.T) {
	const n = 6000
	s := startPeer(t, "A", ServerConfig{FlowWindow: n, DataDir: filepath.Join(t.TempDir(), "A")})
	if _, _, err := s.store.Register("sub"); err != nil {
		t.Fatal(err)
	}
	conn := newCountingConn()
	conn.failAt = 2
	pc := stubbedWriter(t, s, conn, n)
	pc.kind, pc.id = transport.PeerSubscriber, "sub"
	startWriter(s, pc)
	<-pc.writerDone
	if !s.coreQuery(func() { s.dropPeer(pc) }) {
		t.Fatal("core query failed")
	}

	sizes, frames := conn.snapshot(t)
	if len(sizes) != 2 || conn.closes != 1 {
		t.Fatalf("%d writes and %d closes, want the failed write to be the last and one close", len(sizes), conn.closes)
	}
	ids, _ := deliveredIDs(t, frames)
	assertIDs(t, ids, 1, len(ids)) // both writes were cut from the queue's head, in order
	if lost := len(frames[1]); s.store.Pending("sub") != n-len(ids) {
		t.Errorf("%d events salvaged, want %d: all but the %d written and the %d in the failed write",
			s.store.Pending("sub"), n-len(ids), len(frames[0]), lost)
	}
	if st := s.Stats(); st.Dropped != 0 {
		t.Errorf("%d events counted as dropped, want 0", st.Dropped)
	}
}
