package main

import (
	"fmt"
	"sync/atomic"

	"eventsys/internal/filter"
)

// oracle is the reference computation a run is judged against: a naive
// filter.Matches scan of every subscriber's original filters over the
// generated events, made before any broker sees either.
type oracle struct {
	// expect[sub][idx] is 1 when the subscriber must receive pool entry
	// idx, 0 when it must not, and -1 when the entry is outside the
	// verified sample.
	expect [][]int8
	// published[idx] counts publishes of a pool entry since the last
	// baseline. Owned by the publishing goroutine.
	published []uint32
}

// newOracle scans filters against events. Client subscribers (at most a
// handful per workload) are verified on every pool entry; raw sinks on
// one entry in sample, chosen by pool index and hence by event ID, plus
// every sentinel.
func newOracle(in *inputs, sample int) (*oracle, error) {
	or := &oracle{published: make([]uint32, len(in.events))}
	for _, s := range in.subs {
		ex := make([]int8, len(in.events))
		sentinels := 0
		for idx, e := range in.events {
			if s.kind != subClient && idx < in.regular && idx%sample != 0 {
				ex[idx] = -1
				continue
			}
			if filter.Subscription(s.filters).Matches(e, nil) {
				ex[idx] = 1
				if idx >= in.regular {
					sentinels++
				}
			}
		}
		if sentinels == 0 {
			return nil, fmt.Errorf("subscriber %s matches no sentinel: its backlog could not be proven drained", s.id)
		}
		or.expect = append(or.expect, ex)
	}
	return or, nil
}

// expected returns how many verified deliveries the subscriber is owed
// for everything published since the baseline.
func (or *oracle) expected(sub int) uint64 {
	var n uint64
	for idx, ex := range or.expect[sub] {
		if ex == 1 {
			n += uint64(or.published[idx])
		}
	}
	return n
}

// tally counts one subscriber's deliveries against the oracle.
type tally struct {
	ok         uint64 // expected, in order
	unexpected uint64 // verified as not owed
	disorder   uint64 // ID not above the previous one: duplicated or reordered
	unverified uint64 // outside the sample; only its order was checked
}

func (t tally) sub(b tally) tally {
	return tally{t.ok - b.ok, t.unexpected - b.unexpected, t.disorder - b.disorder, t.unverified - b.unverified}
}

// subState checks and records one subscriber's deliveries. deliver runs
// on the subscriber's own goroutine; the harness reads the plain fields
// only after it has seen, through seenSentinel, a sentinel published
// after everything it wants to read about.
type subState struct {
	expect  []int8
	regular int
	record  *atomic.Bool    // shared: the paced phase is on
	arrived chan<- struct{} // shared: poked when a sentinel arrives; may be nil

	lastID  uint64
	t       tally
	samples []sample
	spans   bool     // traced run: keep a span per handler entry
	handled []handle // while the paced phase records

	seenSentinel atomic.Uint64 // publish sequence of the latest sentinel delivered
	delivered    atomic.Uint64
}

// deliver is the handler: it takes the handler-entry time, checks the
// delivery against the oracle and per-source ID order, and keeps the
// latency sample while the paced phase records.
func (s *subState) deliver(id uint64, due int64) {
	at := now()
	idx := idxOf(id)
	switch {
	case id <= s.lastID:
		s.t.disorder++
	case idx >= len(s.expect) || s.expect[idx] == 0:
		s.lastID = id
		s.t.unexpected++
	case s.expect[idx] == 1:
		s.lastID = id
		s.t.ok++
	default:
		s.lastID = id
		s.t.unverified++
	}
	if idx >= s.regular {
		s.seenSentinel.Store(seqOf(id))
		select {
		case s.arrived <- struct{}{}:
		default:
		}
	} else if s.record.Load() {
		s.samples = append(s.samples, sample{at: at, lat: clampLat(at - due)})
		if s.spans {
			s.handled = append(s.handled, handle{id: id, at: at, end: now()})
		}
	}
	s.delivered.Add(1)
}

// handle is one handler entry of a traced run: a harness span.
type handle struct {
	id      uint64
	at, end int64
}

// verdict compares tallies with the oracle's expectations.
type verdict struct {
	attempted            uint64 // expected deliveries
	lost                 uint64
	unexpected, disorder uint64
	publishErrors        uint64
	detail               []string
}

func (v verdict) failed() uint64 {
	return v.lost + v.unexpected + v.disorder + v.publishErrors
}

// judge sums each subscriber's tally (since its baseline) against what
// the oracle says it was owed.
func (or *oracle) judge(ids []string, tallies []tally, publishErrors uint64) verdict {
	v := verdict{publishErrors: publishErrors}
	for i, t := range tallies {
		want := or.expected(i)
		v.attempted += want
		lost := max(want, t.ok) - min(want, t.ok)
		v.lost += lost
		v.unexpected += t.unexpected
		v.disorder += t.disorder
		if lost+t.unexpected+t.disorder > 0 {
			v.detail = append(v.detail, fmt.Sprintf("%s: owed %d, got %d in order, %d unexpected, %d duplicated or out of order",
				ids[i], want, t.ok, t.unexpected, t.disorder))
		}
	}
	if publishErrors > 0 {
		v.detail = append(v.detail, fmt.Sprintf("%d publish errors", publishErrors))
	}
	return v
}
