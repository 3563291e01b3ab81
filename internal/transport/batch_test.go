package transport

import (
	"bytes"
	"reflect"
	"testing"

	"eventsys/internal/event"
)

func TestPublishBatchRoundTrip(t *testing.T) {
	evs := []*event.Event{
		event.NewBuilder("Stock").Str("symbol", "A").Float("price", 1.5).ID(1).Build(),
		event.NewBuilder("Stock").Str("symbol", "B").Int("volume", 99).
			Payload([]byte{1, 2, 3}).ID(2).Build(),
		event.NewBuilder("Bond").Bool("junk", true).ID(3).Build(),
	}
	raws := make([]*event.Raw, len(evs))
	for i, e := range evs {
		raws[i] = event.EncodeRaw(e)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, PublishBatch{Events: raws}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(PublishBatch)
	if !ok {
		t.Fatalf("decoded %T, want PublishBatch", m)
	}
	if len(got.Events) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got.Events), len(evs))
	}
	for i := range evs {
		dec := got.Events[i].Event()
		if !dec.Equal(evs[i]) || dec.ID != evs[i].ID ||
			!reflect.DeepEqual(dec.Payload, evs[i].Payload) {
			t.Errorf("event %d = %+v, want %+v", i, dec, evs[i])
		}
	}
}

func TestPublishBatchEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, PublishBatch{}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pb, ok := m.(PublishBatch); !ok || len(pb.Events) != 0 {
		t.Fatalf("decoded %#v, want empty PublishBatch", m)
	}
}

// TestPublishBatchCountGuard rejects a frame whose declared event count
// exceeds what the body could possibly hold.
func TestPublishBatchCountGuard(t *testing.T) {
	body := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint far above len(body)
	if _, err := decodeMessage(TypePublishBatch, &reader{b: body}); err == nil {
		t.Fatal("want error for oversized batch count")
	}
}
