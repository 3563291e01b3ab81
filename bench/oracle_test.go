package main

import (
	"sync/atomic"
	"testing"
)

// oracleFixture generates the smallest Stock workload and returns a
// checker for its first subscriber plus the IDs that subscriber is owed,
// as if every pool entry had been published once, in order.
func oracleFixture(t *testing.T) (*oracle, *subState, []uint64) {
	t.Helper()
	in, err := generate(specByName("tree-durable"), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rec atomic.Bool
	st := &subState{expect: or.expect[0], regular: in.regular, record: &rec}
	var owed []uint64
	for idx := range in.events {
		or.published[idx]++
		if or.expect[0][idx] == 1 {
			owed = append(owed, eventID(uint64(idx+1), idx))
		}
	}
	if len(owed) < 10 {
		t.Fatalf("fixture owes only %d deliveries", len(owed))
	}
	return or, st, owed
}

func judgeOne(or *oracle, st *subState) verdict {
	// Only the first subscriber took deliveries; judge it alone.
	return (&oracle{expect: or.expect[:1], published: or.published}).judge([]string{"sub0"}, []tally{st.t}, 0)
}

func TestOracleAcceptsExactDelivery(t *testing.T) {
	or, st, owed := oracleFixture(t)
	for _, id := range owed {
		st.deliver(id, 0)
	}
	if v := judgeOne(or, st); v.failed() != 0 || v.attempted != uint64(len(owed)) {
		t.Errorf("exact delivery judged %+v", v)
	}
}

func TestOracleCatchesDroppedDelivery(t *testing.T) {
	or, st, owed := oracleFixture(t)
	for i, id := range owed {
		if i != 3 {
			st.deliver(id, 0)
		}
	}
	if v := judgeOne(or, st); v.lost != 1 || v.failed() != 1 {
		t.Errorf("one dropped delivery judged %+v", v)
	}
}

func TestOracleCatchesDuplicatedDelivery(t *testing.T) {
	or, st, owed := oracleFixture(t)
	for i, id := range owed {
		st.deliver(id, 0)
		if i == 3 {
			st.deliver(id, 0)
		}
	}
	if v := judgeOne(or, st); v.disorder != 1 || v.lost != 0 || v.failed() != 1 {
		t.Errorf("one duplicated delivery judged %+v", v)
	}
}

func TestOracleCatchesReorderedDelivery(t *testing.T) {
	or, st, owed := oracleFixture(t)
	owed[3], owed[4] = owed[4], owed[3]
	for _, id := range owed {
		st.deliver(id, 0)
	}
	// The late one of the pair is out of order; it was still delivered,
	// so it is not also lost twice over: one disorder, one not in order.
	if v := judgeOne(or, st); v.disorder != 1 || v.failed() == 0 {
		t.Errorf("one swapped pair judged %+v", v)
	}
}

func TestOracleCatchesUnexpectedDelivery(t *testing.T) {
	or, st, owed := oracleFixture(t)
	stray := -1
	for idx, ex := range or.expect[0] {
		if ex == 0 {
			stray = idx
			break
		}
	}
	st.deliver(eventID(1, stray), 0) // sequence 1: ahead of everything owed
	for _, id := range owed[1:] {
		st.deliver(id, 0)
	}
	if v := judgeOne(or, st); v.unexpected != 1 {
		t.Errorf("one stray delivery judged %+v", v)
	}
}

// TestSampledOracleChecksBothDirections: on a raw sink only one pool
// entry in sample is verified, but there a missing delivery and a stray
// one are both caught, and every delivery's order is still checked.
func TestSampledOracleChecksBothDirections(t *testing.T) {
	in, err := generate(specByName("alerts-16k"), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	const sampleEvery = 64
	or, err := newOracle(in, sampleEvery)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	var rec atomic.Bool
	st := &subState{expect: or.expect[sink], regular: in.regular, record: &rec}
	var verified, unverified, owedIdx, strayIdx = 0, 0, -1, -1
	for idx, ex := range or.expect[sink][:in.regular] {
		switch {
		case ex == -1:
			unverified++
		case idx%sampleEvery != 0:
			t.Fatalf("pool entry %d verified outside the sample", idx)
		default:
			verified++
			if ex == 1 && owedIdx < 0 {
				owedIdx = idx
			}
			if ex == 0 && strayIdx < 0 {
				strayIdx = idx
			}
		}
	}
	if verified == 0 || unverified == 0 || strayIdx < 0 {
		t.Fatalf("sample of %d verified, %d unverified, stray %d", verified, unverified, strayIdx)
	}
	st.deliver(eventID(1, 1), 0)        // unverified entry: accepted, order only
	st.deliver(eventID(2, strayIdx), 0) // verified as not owed
	st.deliver(eventID(2, strayIdx), 0) // and duplicated
	if st.t.unverified != 1 || st.t.unexpected != 1 || st.t.disorder != 1 {
		t.Errorf("tally %+v", st.t)
	}
	if owedIdx >= 0 {
		or.published[owedIdx]++
		if got := or.expected(sink); got != 1 {
			t.Errorf("expected(sink) = %d after publishing one owed sampled entry", got)
		}
	}
}

func TestOracleRejectsSubscriberWithoutSentinel(t *testing.T) {
	in, err := generate(specByName("hop1-small"), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	in.subs[0].filters[0].Class = "Nothing"
	if _, err := newOracle(in, 1); err == nil {
		t.Error("a subscriber that no sentinel reaches must be refused")
	}
}
