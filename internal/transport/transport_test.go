package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/typing"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after read", buf.Len())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	m := Hello{Kind: PeerChildBroker, ID: "N2.1", Addr: "127.0.0.1:9000"}
	got := roundTrip(t, m).(Hello)
	if got != m {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestPublishDeliverRoundTrip(t *testing.T) {
	e := event.NewBuilder("Stock").
		Str("symbol", "Foo").
		Float("price", 10.25).
		Int("volume", -3).
		Bool("hot", true).
		Payload([]byte{0, 1, 2, 255}).
		ID(77).
		Build()
	got := roundTrip(t, Publish{Event: event.EncodeRaw(e)}).(Publish)
	if !got.Event.Event().Equal(e) || got.Event.EventID() != 77 || !bytes.Equal(got.Event.Payload(), e.Payload) {
		t.Errorf("event round trip: %s vs %s", got.Event.Event(), e)
	}
	// Kinds survive exactly — through the lazy raw view and the decode.
	v, _ := got.Event.Lookup("volume")
	if v.Kind() != event.KindInt {
		t.Errorf("volume kind = %v", v.Kind())
	}
	d := roundTrip(t, Deliver{Event: event.EncodeRaw(e)}).(Deliver)
	if !d.Event.Event().Equal(e) {
		t.Error("deliver round trip failed")
	}
}

func TestEmptyEventRoundTrip(t *testing.T) {
	e := event.New("X")
	got := roundTrip(t, Publish{Event: event.EncodeRaw(e)}).(Publish)
	if !got.Event.Event().Equal(e) || got.Event.Payload() != nil {
		t.Errorf("empty event round trip: %+v", got.Event.Event())
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	f := filter.MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10 && note prefix "a" && x any && y exists`)
	got := roundTrip(t, Subscribe{SubscriberID: "s1", Filter: f}).(Subscribe)
	if got.SubscriberID != "s1" || !got.Filter.Equal(f) {
		t.Errorf("got %+v", got)
	}
}

func TestSubscribeReplyRoundTrip(t *testing.T) {
	f := filter.MustParseFilter(`class = "Stock" && symbol = "A"`)
	for _, m := range []SubscribeReply{
		{Accepted: true, Stored: f},
		{Accepted: false, TargetAddr: "10.0.0.1:99"},
	} {
		got := roundTrip(t, m).(SubscribeReply)
		if got.Accepted != m.Accepted || got.TargetAddr != m.TargetAddr {
			t.Errorf("got %+v, want %+v", got, m)
		}
		if (m.Stored == nil) != (got.Stored == nil) {
			t.Errorf("stored presence mismatch")
		}
		if m.Stored != nil && !got.Stored.Equal(m.Stored) {
			t.Errorf("stored filter mismatch")
		}
	}
}

func TestReqInsertRoundTrip(t *testing.T) {
	f := filter.MustParseFilter(`class = "Stock" && symbol = "A"`)
	got := roundTrip(t, ReqInsert{ChildID: "N1.2", Filter: f}).(ReqInsert)
	if got.ChildID != "N1.2" || !got.Filter.Equal(f) {
		t.Errorf("got %+v", got)
	}
}

func TestRenewUnsubscribeRoundTrip(t *testing.T) {
	f := filter.MustParseFilter(`x = 1`)
	g := roundTrip(t, Renew{ID: "s9", Filter: f}).(Renew)
	if g.ID != "s9" || !g.Filter.Equal(f) {
		t.Errorf("renew: %+v", g)
	}
	u := roundTrip(t, Unsubscribe{ID: "s9", Filter: f}).(Unsubscribe)
	if u.ID != "s9" || !u.Filter.Equal(f) {
		t.Errorf("unsubscribe: %+v", u)
	}
}

func TestAdvertiseRoundTrip(t *testing.T) {
	ad, err := typing.NewAdvertisement("Biblio", 4, "year", "conference", "author", "title")
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, Advertise{Ad: ad}).(Advertise)
	if got.Ad.Class != "Biblio" || !reflect.DeepEqual(got.Ad.Attrs, ad.Attrs) ||
		!reflect.DeepEqual(got.Ad.StageAttrs, ad.StageAttrs) {
		t.Errorf("got %+v, want %+v", got.Ad, ad)
	}
	if err := got.Ad.Validate(); err != nil {
		t.Errorf("decoded advert invalid: %v", err)
	}
}

func TestLinkStateRoundTrip(t *testing.T) {
	for _, m := range []LinkState{
		{Origin: "geneva", Seq: 42, Peers: []string{"basel", "zurich"}},
		{Origin: "island", Seq: 1}, // no peers: a broker whose last link just died
		// A partitioned replica: listen address and replica group ride
		// on the LSA (the partition map is derived, never gossiped).
		{Origin: "lyon", Seq: 7, Peers: []string{"geneva"}, Addr: "10.1.2.3:7070", Part: "shard-a"},
	} {
		got := roundTrip(t, m).(LinkState)
		if got.Origin != m.Origin || got.Seq != m.Seq || !slices.Equal(got.Peers, m.Peers) ||
			got.Addr != m.Addr || got.Part != m.Part {
			t.Errorf("got %+v, want %+v", got, m)
		}
	}
}

func TestPartitionRedirectRoundTrip(t *testing.T) {
	for _, m := range []PartitionRedirect{
		{
			Epoch:      0xdeadbeefcafe0001,
			Partitions: 64,
			Replicas: []ReplicaInfo{
				{ID: "b1", Addr: "10.0.0.1:7070"},
				{ID: "b2", Addr: "10.0.0.2:7070"},
				{ID: "b3", Addr: "10.0.0.3:7070"},
			},
		},
		// A lone replica still redirects (its map has a real epoch).
		{Epoch: 1, Partitions: 1, Replicas: []ReplicaInfo{{ID: "only", Addr: "[::1]:9"}}},
	} {
		got := roundTrip(t, m).(PartitionRedirect)
		if got.Epoch != m.Epoch || got.Partitions != m.Partitions ||
			!slices.Equal(got.Replicas, m.Replicas) {
			t.Errorf("got %+v, want %+v", got, m)
		}
	}
}

func TestPublishEpochRoundTrip(t *testing.T) {
	e := event.NewBuilder("Stock").Str("symbol", "Foo").ID(3).Build()
	p := roundTrip(t, Publish{Event: event.EncodeRaw(e), Epoch: 0x0102030405060708}).(Publish)
	if p.Epoch != 0x0102030405060708 || !p.Event.Event().Equal(e) {
		t.Errorf("publish epoch round trip: epoch=%#x event=%s", p.Epoch, p.Event.Event())
	}
	// Zero epoch — an unpartitioned publisher — survives too.
	p = roundTrip(t, Publish{Event: event.EncodeRaw(e)}).(Publish)
	if p.Epoch != 0 {
		t.Errorf("zero epoch round trip: %#x", p.Epoch)
	}
	b := roundTrip(t, PublishBatch{
		Events: []*event.Raw{event.EncodeRaw(e)},
		Epoch:  42,
	}).(PublishBatch)
	if b.Epoch != 42 || len(b.Events) != 1 || !b.Events[0].Event().Equal(e) {
		t.Errorf("batch epoch round trip: %+v", b)
	}
}

func TestGroupDeliveryRoundTrip(t *testing.T) {
	f := filter.MustParseFilter(`class = "Stock"`)
	s := roundTrip(t, Subscribe{SubscriberID: "w1", Filter: f, Group: "billing"}).(Subscribe)
	if s.Group != "billing" || s.SubscriberID != "w1" {
		t.Errorf("group subscribe round trip: %+v", s)
	}
	e := event.NewBuilder("Stock").Int("volume", 9).ID(11).Build()
	d := roundTrip(t, Deliver{Event: event.EncodeRaw(e), Seq: 1 << 40}).(Deliver)
	if d.Seq != 1<<40 || !d.Event.Event().Equal(e) {
		t.Errorf("group deliver round trip: seq=%d", d.Seq)
	}
	a := roundTrip(t, GroupAck{Seq: 1 << 40}).(GroupAck)
	if a.Seq != 1<<40 {
		t.Errorf("group ack round trip: %+v", a)
	}
}

func TestPeerPingRoundTrip(t *testing.T) {
	roundTrip(t, PeerPing{}) // body-less frame: type tag alone must survive
}

func TestZeroFilterRoundTrip(t *testing.T) {
	got := roundTrip(t, Subscribe{SubscriberID: "s", Filter: &filter.Filter{}}).(Subscribe)
	if got.Filter.Class != "" || len(got.Filter.Constraints) != 0 {
		t.Errorf("zero filter round trip: %+v", got.Filter)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Hello{Kind: PeerPublisher, ID: "p"},
		Publish{Event: event.EncodeRaw(event.New("A"))},
		Renew{ID: "x", Filter: filter.MustParseFilter(`a = 1`)},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("frame %d: type %v, want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestMalformedFrames(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{0, 0}},
		{"unknown type", frame(99, nil)},
		{"truncated body", []byte{0, 0, 0, 10, byte(TypePublish), 1, 2}},
		{"garbage publish", frame(byte(TypePublish), []byte{0xff, 0xff, 0xff})},
		{"trailing bytes", frame(byte(TypeHello), append(helloBody(), 0xAA))},
		{"bad value kind", frame(byte(TypePublish), badKindEvent())},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tt.data))
			if err == nil {
				t.Error("malformed frame decoded without error")
			}
		})
	}
}

func frame(typ byte, body []byte) []byte {
	out := make([]byte, 5+len(body))
	binary.BigEndian.PutUint32(out[:4], uint32(len(body)))
	out[4] = typ
	copy(out[5:], body)
	return out
}

func helloBody() []byte {
	return Hello{Kind: PeerPublisher, ID: "x", Addr: ""}.encode(nil)
}

func badKindEvent() []byte {
	b := appendStr(nil, "T")
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 1) // one attribute
	b = appendStr(b, "a")
	b = append(b, 200)                // invalid kind
	return binary.AppendUvarint(b, 0) // empty payload
}

func TestOversizeFrameRejected(t *testing.T) {
	data := frame(byte(TypePublish), nil)
	binary.BigEndian.PutUint32(data[:4], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversize frame: %v", err)
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 66))
	for i := 0; i < 5000; i++ {
		n := rng.IntN(64)
		body := make([]byte, n)
		for j := range body {
			body[j] = byte(rng.UintN(256))
		}
		typ := byte(rng.UintN(12))
		// Must never panic; errors are fine.
		_, _ = ReadFrame(bytes.NewReader(frame(typ, body)))
	}
}

func TestRandomEventFilterRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 88))
	for i := 0; i < 500; i++ {
		e := randomEvent(rng)
		got := roundTrip(t, Publish{Event: event.EncodeRaw(e)}).(Publish)
		if !got.Event.Event().Equal(e) {
			t.Fatalf("event diverged: %s vs %s", got.Event.Event(), e)
		}
		f := randomFilter(rng)
		gotF := roundTrip(t, Subscribe{SubscriberID: "s", Filter: f}).(Subscribe)
		if !gotF.Filter.Equal(f) {
			t.Fatalf("filter diverged: %s vs %s", gotF.Filter, f)
		}
	}
}

func randomEvent(rng *rand.Rand) *event.Event {
	b := event.NewBuilder("T" + string(rune('A'+rng.IntN(3))))
	for i := 0; i < rng.IntN(5); i++ {
		name := string(rune('a' + i))
		switch rng.IntN(4) {
		case 0:
			b.Str(name, strings.Repeat("x", rng.IntN(10)))
		case 1:
			b.Int(name, rng.Int64()-rng.Int64())
		case 2:
			b.Float(name, rng.Float64()*1e6-5e5)
		default:
			b.Bool(name, rng.IntN(2) == 0)
		}
	}
	if rng.IntN(2) == 0 {
		p := make([]byte, rng.IntN(32))
		for i := range p {
			p[i] = byte(rng.UintN(256))
		}
		b.Payload(p)
	}
	return b.ID(rng.Uint64()).Build()
}

func randomFilter(rng *rand.Rand) *filter.Filter {
	f := &filter.Filter{}
	if rng.IntN(2) == 0 {
		f.Class = "C" + string(rune('A'+rng.IntN(3)))
	}
	ops := []filter.Op{filter.OpEq, filter.OpNe, filter.OpLt, filter.OpLe, filter.OpGt,
		filter.OpGe, filter.OpPrefix, filter.OpSuffix, filter.OpContains, filter.OpExists, filter.OpAny}
	for i := 0; i < rng.IntN(4); i++ {
		op := ops[rng.IntN(len(ops))]
		c := filter.Constraint{Attr: string(rune('a' + rng.IntN(4))), Op: op}
		if op.NeedsOperand() {
			switch rng.IntN(3) {
			case 0:
				c.Operand = event.String("v" + string(rune('0'+rng.IntN(10))))
			case 1:
				c.Operand = event.Int(int64(rng.IntN(100)))
			default:
				c.Operand = event.Float(rng.Float64() * 100)
			}
		}
		f.Constraints = append(f.Constraints, c)
	}
	return f
}

func TestCreditRoundTrip(t *testing.T) {
	for _, grant := range []uint32{0, 1, 512, 1 << 31} {
		got := roundTrip(t, Credit{Grant: grant}).(Credit)
		if got.Grant != grant {
			t.Errorf("credit grant %d round-tripped to %d", grant, got.Grant)
		}
	}
	ack := roundTrip(t, CreditAck{Window: 1024}).(CreditAck)
	if ack.Window != 1024 {
		t.Errorf("credit ack window 1024 round-tripped to %d", ack.Window)
	}
}
