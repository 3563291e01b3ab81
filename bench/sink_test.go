package main

import (
	"net"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/transport"
)

// fakeBroker accepts one subscriber connection and answers its
// handshake: every Subscribe is accepted. It returns the connection and
// the first credit grant the sink sent.
func fakeBroker(t *testing.T, ln net.Listener, subscribes int) (net.Conn, *transport.FrameReader, uint32) {
	t.Helper()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	fr := transport.NewFrameReader(c)
	next := func() transport.Message {
		m, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("fake broker read: %v", err)
		}
		return m
	}
	if h, ok := next().(transport.Hello); !ok || h.Kind != transport.PeerSubscriber || h.ID != "sink" {
		t.Fatalf("first frame is not the sink's Hello: %+v", h)
	}
	for i := 0; i < subscribes; i++ {
		s, ok := next().(transport.Subscribe)
		if !ok || s.SubscriberID != "sink" {
			t.Fatalf("frame %d is not a Subscribe under the connection's ID: %+v", i, s)
		}
		if err := transport.WriteFrame(c, transport.SubscribeReply{Accepted: true, Stored: s.Filter}); err != nil {
			t.Fatal(err)
		}
	}
	cr, ok := next().(transport.Credit)
	if !ok {
		t.Fatal("no initial credit grant after the subscriptions")
	}
	return c, fr, cr.Grant
}

// TestSinkReplenishesCredit: the raw sink grants the flow default window
// after subscribing and re-grants exactly what it consumed each time
// half a window has been delivered, as broker.Subscriber does.
func TestSinkReplenishesCredit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// More filters than the subscribe window, so the pipelining is used.
	filters := make([]*filter.Filter, subscribeWindow+10)
	for i := range filters {
		filters[i] = filter.New("Tick", filter.C("k", filter.OpEq, event.Int(int64(i))))
	}
	delivered := make(chan uint64, 4*flow.DefaultCreditWindow)
	type dialed struct {
		s   *sink
		err error
	}
	ready := make(chan dialed, 1)
	go func() {
		s, err := dialSink(ln.Addr().String(), "sink", filters, func(r *event.Raw) { delivered <- r.EventID() })
		ready <- dialed{s, err}
	}()
	c, fr, grant := fakeBroker(t, ln, len(filters))
	defer c.Close()
	d := <-ready
	if d.err != nil {
		t.Fatal(d.err)
	}
	defer d.s.sever()
	if grant != flow.DefaultCreditWindow {
		t.Fatalf("initial grant = %d, want the flow default %d", grant, flow.DefaultCreditWindow)
	}

	half := uint32(flow.DefaultCreditWindow / 2)
	send := func(from, n uint32) {
		for i := from; i < from+n; i++ {
			raw := event.EncodeRaw(event.NewBuilder("Tick").Int("k", 1).ID(uint64(i + 1)).Build())
			if err := transport.WriteFrame(c, transport.Deliver{Event: raw}); err != nil {
				t.Fatal(err)
			}
		}
	}
	regrant := func() uint32 {
		m, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("awaiting a credit grant: %v", err)
		}
		cr, ok := m.(transport.Credit)
		if !ok {
			t.Fatalf("got %T, want Credit", m)
		}
		return cr.Grant
	}
	send(0, half)
	if g := regrant(); g != half {
		t.Errorf("grant after half a window = %d, want %d", g, half)
	}
	// One short of the next half window: nothing may be granted yet.
	send(half, half-1)
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if m, err := fr.ReadFrame(); err == nil {
		t.Errorf("credit granted early: %+v", m)
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	send(2*half-1, 1)
	if g := regrant(); g != half {
		t.Errorf("second grant = %d, want %d", g, half)
	}
	for want := uint64(1); want <= uint64(2*half); want++ {
		if got := <-delivered; got != want {
			t.Fatalf("delivery %d carried ID %d", want, got)
		}
	}
}

// TestSinkFollowsRedirect: the placement walk may answer join-At; the
// sink re-dials the target, as a hierarchy's root tells it to.
func TestSinkFollowsRedirect(t *testing.T) {
	root, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	leaf, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	go func() {
		c, err := root.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fr := transport.NewFrameReader(c)
		for i := 0; i < 2; i++ { // Hello, Subscribe
			if _, err := fr.ReadFrame(); err != nil {
				return
			}
		}
		_ = transport.WriteFrame(c, transport.SubscribeReply{TargetAddr: leaf.Addr().String()})
	}()
	ready := make(chan error, 1)
	var s *sink
	go func() {
		var err error
		s, err = dialSink(root.Addr().String(), "sink", []*filter.Filter{{Class: "Tick"}}, func(*event.Raw) {})
		ready <- err
	}()
	c, _, _ := fakeBroker(t, leaf, 1)
	defer c.Close()
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	s.sever()
}
