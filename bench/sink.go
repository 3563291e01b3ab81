package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/transport"
)

// rawConn is a subscriber connection driven frame by frame: Hello, then
// any number of Subscribe/Unsubscribe under the connection's one ID.
// broker.DialSubscriber cannot multiplex subscriptions, time a
// subscribe round trip, or vanish without unsubscribing; this can.
type rawConn struct {
	id string
	c  net.Conn
	fr *transport.FrameReader
	// wmu orders the reader's credit grants with the owner's writes.
	wmu sync.Mutex
}

func dialRaw(addr, id string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	rc := &rawConn{id: id, c: c, fr: transport.NewFrameReader(c)}
	if err := rc.write(transport.Hello{Kind: transport.PeerSubscriber, ID: id}); err != nil {
		c.Close()
		return nil, err
	}
	return rc, nil
}

func (rc *rawConn) write(m transport.Message) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	return transport.WriteFrame(rc.c, m)
}

// reply reads frames until a SubscribeReply arrives.
func (rc *rawConn) reply() (transport.SubscribeReply, error) {
	_ = rc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	defer rc.c.SetReadDeadline(time.Time{})
	for {
		m, err := rc.fr.ReadFrame()
		if err != nil {
			return transport.SubscribeReply{}, fmt.Errorf("%s: awaiting subscribe reply: %w", rc.id, err)
		}
		if rep, ok := m.(transport.SubscribeReply); ok {
			return rep, nil
		}
	}
}

// subscribeWindow bounds the subscribes a sink keeps in flight: a broker
// drops control replies once a connection's control channel (256) is
// full.
const subscribeWindow = 64

// sink is a passive raw subscriber: it registers its filters, grants the
// broker credit as it consumes, and hands every delivered event to
// onDeliver undecoded.
type sink struct {
	*rawConn
	done chan struct{} // closed when the read loop has exited
}

// dialSink walks the placement protocol from addr with the first filter,
// registers the rest at the accepting broker, grants the initial credit
// window and starts consuming.
func dialSink(addr, id string, filters []*filter.Filter, onDeliver func(*event.Raw)) (*sink, error) {
	var rc *rawConn
	for hop := 0; ; hop++ {
		if hop == 8 {
			return nil, fmt.Errorf("%s: too many redirects", id)
		}
		var err error
		if rc, err = dialRaw(addr, id); err != nil {
			return nil, err
		}
		if err = rc.write(transport.Subscribe{SubscriberID: id, Filter: filters[0]}); err != nil {
			rc.c.Close()
			return nil, err
		}
		rep, err := rc.reply()
		if err != nil {
			rc.c.Close()
			return nil, err
		}
		if rep.Accepted {
			break
		}
		rc.c.Close()
		if rep.TargetAddr == "" {
			return nil, fmt.Errorf("%s: rejected without a redirect target", id)
		}
		addr = rep.TargetAddr
	}
	accepted := func() error {
		rep, err := rc.reply()
		if err == nil && !rep.Accepted {
			err = fmt.Errorf("%s: a later subscription was redirected to %q", id, rep.TargetAddr)
		}
		return err
	}
	inflight := 0
	for _, f := range filters[1:] {
		if inflight == subscribeWindow {
			if err := accepted(); err != nil {
				rc.c.Close()
				return nil, err
			}
			inflight--
		}
		if err := rc.write(transport.Subscribe{SubscriberID: id, Filter: f}); err != nil {
			rc.c.Close()
			return nil, err
		}
		inflight++
	}
	for ; inflight > 0; inflight-- {
		if err := accepted(); err != nil {
			rc.c.Close()
			return nil, err
		}
	}
	meter := flow.NewMeter(0)
	if err := rc.write(transport.Credit{Grant: uint32(meter.Window())}); err != nil {
		rc.c.Close()
		return nil, err
	}
	s := &sink{rawConn: rc, done: make(chan struct{})}
	go s.consume(meter, onDeliver)
	return s, nil
}

// consume is the read loop. Credit returns to the broker only after
// onDeliver, in the half-window batches flow.Meter hands out, exactly as
// broker.Subscriber replenishes it.
func (s *sink) consume(meter *flow.Meter, onDeliver func(*event.Raw)) {
	defer close(s.done)
	for {
		m, err := s.fr.ReadFrame()
		if err != nil {
			return
		}
		d, ok := m.(transport.Deliver)
		if !ok || d.Event == nil {
			continue
		}
		onDeliver(d.Event)
		if g := meter.Consume(1); g > 0 {
			if s.write(transport.Credit{Grant: uint32(g)}) != nil {
				return
			}
		}
	}
}

// sever drops the connection without unsubscribing, like a crashed
// client, and waits for the read loop to end.
func (s *sink) sever() {
	s.c.Close()
	<-s.done
}

// churner is the alerts workload's ninth connection: it subscribes,
// awaits the reply and unsubscribes, one pair at a time.
type churner struct {
	*rawConn
}

func dialChurner(addr string) (*churner, error) {
	rc, err := dialRaw(addr, "churn")
	if err != nil {
		return nil, err
	}
	return &churner{rc}, nil
}

// pair runs one subscribe→reply→unsubscribe and returns the round trip
// from the Subscribe write to the SubscribeReply read.
func (ch *churner) pair(f *filter.Filter) (rtt time.Duration, err error) {
	t0 := now()
	if err = ch.write(transport.Subscribe{SubscriberID: ch.id, Filter: f}); err != nil {
		return 0, err
	}
	rep, err := ch.reply()
	if err != nil {
		return 0, err
	}
	rtt = time.Duration(now() - t0)
	if !rep.Accepted {
		return 0, fmt.Errorf("churn subscription redirected to %q", rep.TargetAddr)
	}
	return rtt, ch.write(transport.Unsubscribe{ID: ch.id, Filter: rep.Stored})
}
