package transport

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

func TestPeerHelloRoundTrip(t *testing.T) {
	m := PeerHello{ID: "B2", Addr: "127.0.0.1:7002"}
	got := roundTrip(t, m).(PeerHello)
	if got != m {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestSubUpdateRoundTrip(t *testing.T) {
	f := filter.MustParseFilter(`class = "Stock" && symbol = "ACME" && price < 10`)
	m := SubUpdate{Entry: SubEntry{Hops: 3, Filter: f}}
	got := roundTrip(t, m).(SubUpdate)
	if got.Entry.Hops != 3 || !got.Entry.Filter.Equal(f) {
		t.Errorf("got %+v", got)
	}
}

func TestSubSetRoundTrip(t *testing.T) {
	m := SubSet{Entries: []SubEntry{
		{Hops: 1, Filter: filter.MustParseFilter(`class = "Stock" && price < 10`)},
		{Hops: 2, Filter: filter.MustParseFilter(`class = "Bond"`)},
		{Hops: 7, Filter: &filter.Filter{}},
	}}
	got := roundTrip(t, m).(SubSet)
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(got.Entries))
	}
	for i, e := range got.Entries {
		if e.Hops != m.Entries[i].Hops || !e.Filter.Equal(m.Entries[i].Filter) {
			t.Errorf("entry %d: got %+v, want %+v", i, e, m.Entries[i])
		}
	}
}

func TestSubSetEmptyRoundTrip(t *testing.T) {
	got := roundTrip(t, SubSet{}).(SubSet)
	if len(got.Entries) != 0 {
		t.Errorf("entries = %v, want none", got.Entries)
	}
}

func TestForwardRoundTrip(t *testing.T) {
	e := event.NewBuilder("Stock").Str("symbol", "ACME").Float("price", 9.5).ID(42).Build()
	got := roundTrip(t, Forward{Event: event.EncodeRaw(e)}).(Forward)
	if !got.Event.Event().Equal(e) || got.Event.EventID() != 42 {
		t.Errorf("event round trip: %s vs %s", got.Event.Event(), e)
	}
}

func TestForwardBatchRoundTrip(t *testing.T) {
	events := []*event.Event{
		event.NewBuilder("Stock").Str("symbol", "A").ID(1).Build(),
		event.NewBuilder("Stock").Str("symbol", "B").ID(2).Build(),
		event.NewBuilder("Bond").Int("rate", 3).ID(3).Build(),
	}
	raws := make([]*event.Raw, len(events))
	for i, e := range events {
		raws[i] = event.EncodeRaw(e)
	}
	got := roundTrip(t, ForwardBatch{Events: raws}).(ForwardBatch)
	if len(got.Events) != len(events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(events))
	}
	for i := range events {
		if !got.Events[i].Event().Equal(events[i]) || got.Events[i].EventID() != events[i].ID {
			t.Errorf("event %d mismatch: %s vs %s", i, got.Events[i].Event(), events[i])
		}
	}
}

// TestSubSetCountGuard rejects a frame whose claimed entry count exceeds
// what the frame could possibly hold.
func TestSubSetCountGuard(t *testing.T) {
	body := binary.AppendUvarint(nil, 1<<40) // absurd count, no entries
	frame := make([]byte, 5+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	frame[4] = byte(TypeSubSet)
	copy(frame[5:], body)
	if _, err := ReadFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("absurd subset count accepted")
	}
}

// TestSubEntryHopGuard rejects implausible hop distances.
func TestSubEntryHopGuard(t *testing.T) {
	body := binary.AppendUvarint(nil, 1<<40) // hops
	body = appendFilter(body, filter.MustParseFilter(`x = 1`))
	frame := make([]byte, 5+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	frame[4] = byte(TypeSubUpdate)
	copy(frame[5:], body)
	_, err := ReadFrame(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "hop count") {
		t.Fatalf("err = %v, want hop count rejection", err)
	}
}

// TestPeerFramesTruncated checks the decoder fails cleanly (no panic, an
// error) on every truncation prefix of each valid peer frame.
func TestPeerFramesTruncated(t *testing.T) {
	frames := []Message{
		PeerHello{ID: "B1", Addr: "h:1"},
		SubUpdate{Entry: SubEntry{Hops: 2, Filter: filter.MustParseFilter(`class = "Stock" && price < 10`)}},
		SubSet{Entries: []SubEntry{{Hops: 1, Filter: filter.MustParseFilter(`x = 1`)}}},
		Forward{Event: event.EncodeRaw(event.NewBuilder("T").Int("x", 1).ID(9).Build())},
		ForwardBatch{Events: []*event.Raw{event.EncodeRaw(event.NewBuilder("T").Int("x", 1).ID(9).Build())}},
	}
	for _, m := range frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		whole := buf.Bytes()
		for cut := 5; cut < len(whole); cut++ {
			// Rewrite the header length to match the truncated body so the
			// decoder sees the short body rather than blocking on io.
			trunc := append([]byte(nil), whole[:cut]...)
			binary.BigEndian.PutUint32(trunc[:4], uint32(cut-5))
			if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
				t.Errorf("%T truncated to %d bytes decoded without error", m, cut)
			}
		}
	}
}
