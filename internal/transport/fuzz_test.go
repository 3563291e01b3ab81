package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// FuzzReadFrame ensures frame decoding never panics or over-allocates on
// adversarial input, and that whatever decodes re-encodes to an
// equivalent frame.
func FuzzReadFrame(f *testing.F) {
	// Seed with every valid message type round-tripped.
	var buf bytes.Buffer
	_ = WriteFrame(&buf, Hello{Kind: PeerPublisher, ID: "p", Addr: "a:1"})
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteFrame(&buf, Subscribe{SubscriberID: "s", Filter: mustFilter()})
	f.Add(buf.Bytes())
	for _, m := range peerSeedFrames() {
		buf.Reset()
		_ = WriteFrame(&buf, m)
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, 2, 0})
	f.Add([]byte{255, 255, 255, 255, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same type.
		var out bytes.Buffer
		if err := WriteFrame(&out, m); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		m2, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed through round trip: %v vs %v", m.Type(), m2.Type())
		}
	})
}

func mustFilter() *filter.Filter {
	return filter.MustParseFilter(`class = "Stock" && price < 10`)
}

// peerSeedFrames returns one valid instance of every federation frame.
func peerSeedFrames() []Message {
	ev := event.EncodeRaw(event.NewBuilder("Stock").Str("symbol", "ACME").Float("price", 9.5).ID(7).Build())
	return []Message{
		PeerHello{ID: "B1", Addr: "127.0.0.1:7001"},
		SubUpdate{Entry: SubEntry{Hops: 2, Filter: mustFilter()}},
		SubSet{Entries: []SubEntry{
			{Hops: 1, Filter: mustFilter()},
			{Hops: 3, Filter: filter.MustParseFilter(`class = "Bond"`)},
		}},
		Forward{Event: ev},
		ForwardBatch{Events: []*event.Raw{ev, ev}},
	}
}

// FuzzPeerFrames hammers the federation-frame decoders specifically:
// the fuzzer mutates valid PeerHello/SubSet/SubUpdate/Forward/
// ForwardBatch frames (plus hand-made corruptions), and the decoder must
// never panic, never over-allocate, and must re-encode whatever it
// accepts into an equivalent frame.
func FuzzPeerFrames(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range peerSeedFrames() {
		buf.Reset()
		_ = WriteFrame(&buf, m)
		f.Add(buf.Bytes())
		// Truncated variant: header shortened to half the body.
		b := append([]byte(nil), buf.Bytes()...)
		if len(b) > 10 {
			half := b[:5+(len(b)-5)/2]
			binary.BigEndian.PutUint32(half[:4], uint32(len(half)-5))
			f.Add(half)
		}
		// Corrupt variant: a flipped byte mid-body.
		c := append([]byte(nil), buf.Bytes()...)
		c[5+(len(c)-5)/2] ^= 0xff
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		switch m.(type) {
		case PeerHello, SubSet, SubUpdate, Forward, ForwardBatch:
		default:
			return // only peer frames are this target's concern
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, m); err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", m, err)
		}
		m2, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed through round trip: %v vs %v", m.Type(), m2.Type())
		}
	})
}

// FuzzCreditFrames hammers the flow-control frame decoders: the fuzzer
// mutates valid Credit/CreditAck frames plus hand-made corruptions
// (oversized uvarints, truncated bodies, trailing bytes), and the
// decoder must never panic and must re-encode whatever it accepts into
// an identical frame — credit quantities steer sender admission, so a
// mis-decoded grant would silently widen or wedge a link.
func FuzzCreditFrames(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range []Message{
		Credit{Grant: 1}, Credit{Grant: 512}, Credit{Grant: 1<<32 - 1},
		CreditAck{Window: 1024}, CreditAck{Window: 0},
	} {
		buf.Reset()
		_ = WriteFrame(&buf, m)
		f.Add(buf.Bytes())
	}
	// A uvarint exceeding uint32: must be rejected, not wrapped.
	f.Add([]byte{0, 0, 0, 6, byte(TypeCredit), 0xff, 0xff, 0xff, 0xff, 0x7f})
	// Trailing garbage after a valid grant.
	f.Add([]byte{0, 0, 0, 3, byte(TypeCredit), 0x01, 0x00})
	// Truncated: length promises more body than present.
	f.Add([]byte{0, 0, 0, 2, byte(TypeCreditAck)})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var grant, window uint32
		switch c := m.(type) {
		case Credit:
			grant = c.Grant
		case CreditAck:
			window = c.Window
		default:
			return // only flow-control frames are this target's concern
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, m); err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", m, err)
		}
		m2, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		switch c2 := m2.(type) {
		case Credit:
			if c2.Grant != grant {
				t.Fatalf("grant changed through round trip: %d vs %d", c2.Grant, grant)
			}
		case CreditAck:
			if c2.Window != window {
				t.Fatalf("window changed through round trip: %d vs %d", c2.Window, window)
			}
		default:
			t.Fatalf("type changed through round trip: %T vs %T", m2, m)
		}
	})
}

// chunkReader serves a byte stream in reads of the sizes its pattern
// dictates (cycled; a byte below 128 asks for that many bytes plus one, a
// byte from 128 for up to 8 KiB in steps of 64, enough to fill and grow a
// FrameReader's buffer), so a test can put the boundary between two reads
// at any byte of a frame stream. With dataErr the last bytes arrive
// together with io.EOF, as the io.Reader contract allows.
type chunkReader struct {
	data    []byte
	pattern []byte
	i       int
	dataErr bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	k := 1
	if len(c.pattern) > 0 {
		if k += int(c.pattern[c.i%len(c.pattern)]); k > 128 {
			k = (k - 128) * 64
		}
		c.i++
	}
	n := copy(p, c.data[:min(k, len(c.data))])
	c.data = c.data[n:]
	if c.dataErr && len(c.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// readAll loops next until it fails, returning every message re-encoded
// (the comparable form of a decoded message) and the error that ended
// the stream.
func readAll(t *testing.T, next func() (Message, error)) ([][]byte, error) {
	var out [][]byte
	for {
		m, err := next()
		if err != nil {
			return out, err
		}
		b, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", m, err)
		}
		out = append(out, b)
	}
}

// TestFrameReaderReadAhead: against a sender that always has more, the
// buffer grows to its cap and a read takes a capful of frames; against one
// that sends a frame at a time it stays at its floor and costs one read a
// frame, where the one-shot reader pays two.
func TestFrameReaderReadAhead(t *testing.T) {
	const n = 5000
	var stream []byte
	for i := 0; i < n; i++ {
		stream, _ = AppendFrame(stream, Credit{Grant: uint32(200 + i)}) // 7 bytes each
	}
	size := len(stream) / n

	fr := NewFrameReader(&chunkReader{data: stream, pattern: []byte{255}}) // 8 KiB a read
	for i := 0; i < n; i++ {
		if m, err := fr.ReadFrame(); err != nil || m.(Credit).Grant != uint32(200+i) {
			t.Fatalf("frame %d: %v, %v", i, m, err)
		}
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	if most := uint64(len(stream)/readAheadMax + 8); fr.Reads() > most {
		t.Errorf("%d reads for %d bytes, want at most %d: the buffer did not grow to %d", fr.Reads(), len(stream), most, readAheadMax)
	}

	fr = NewFrameReader(&chunkReader{data: stream, pattern: []byte{byte(size - 1)}}) // a frame a read
	for i := 0; i < n; i++ {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if fr.Reads() != n || len(fr.buf) != readAheadMin {
		t.Errorf("%d reads for %d frames arriving one by one into a %d-byte buffer, want %d reads and the buffer still at %d",
			fr.Reads(), n, len(fr.buf), n, readAheadMin)
	}
}

// FuzzFrameReaderChunking pins the buffered FrameReader to the one-shot
// ReadFrame: whatever the stream holds and wherever the reads cut it — one
// byte at a time, many frames in a read, a frame across two reads, an
// oversize header, a truncated tail — both yield the same messages and
// end on the same error. io.EOF comes back bare only at a frame boundary.
func FuzzFrameReaderChunking(f *testing.F) {
	var stream []byte
	for _, m := range append(peerSeedFrames(),
		Hello{Kind: PeerSubscriber, ID: "s"}, Credit{Grant: 512}, PeerPing{},
		Subscribe{SubscriberID: "s", Filter: mustFilter()},
		Deliver{Seq: 3, Event: peerSeedFrames()[3].(Forward).Event},
		Forward{Event: event.EncodeRaw(event.NewBuilder("Big").Payload(make([]byte, 3*readAheadMin)).Build())},
	) {
		stream, _ = AppendFrame(stream, m)
	}
	oversize := append(append([]byte(nil), stream[:40]...), 255, 255, 255, 255, byte(TypeForward))
	for _, pattern := range [][]byte{nil, {0}, {127}, {255}, {2, 6, 0}, {36, 4}, {135, 0, 0}} {
		f.Add(stream, pattern, false)
		f.Add(stream, pattern, true)
		f.Add(stream[:len(stream)-3], pattern, false) // truncated inside a body
		f.Add(stream[:len(stream)-3], pattern, true)
		f.Add(append(stream[:len(stream):len(stream)], 0, 0), pattern, false) // truncated inside a header
		f.Add(oversize, pattern, false)
	}

	f.Fuzz(func(t *testing.T, data, pattern []byte, dataErr bool) {
		one := bytes.NewReader(data)
		want, wantErr := readAll(t, func() (Message, error) { return ReadFrame(one) })
		fr := NewFrameReader(&chunkReader{data: data, pattern: pattern, dataErr: dataErr})
		got, gotErr := readAll(t, fr.ReadFrame)

		if len(got) != len(want) {
			t.Fatalf("buffered reader returned %d frames, one-shot %d (errors %v / %v)", len(got), len(want), gotErr, wantErr)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs:\n got %x\nwant %x", i, got[i], want[i])
			}
		}
		if gotErr.Error() != wantErr.Error() || (gotErr == io.EOF) != (wantErr == io.EOF) {
			t.Fatalf("stream ended with %q, one-shot with %q", gotErr, wantErr)
		}
		if wantErr == io.EOF && one.Len() != 0 {
			t.Fatalf("bare io.EOF with %d bytes unread", one.Len())
		}
	})
}
