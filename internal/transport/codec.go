package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// MaxFrame bounds a single message body (16 MiB).
const MaxFrame = 16 << 20

// frameHeader is the per-frame framing overhead: 4-byte length plus the
// 1-byte message type.
const frameHeader = 5

// Encoders append to a caller-owned slice, so a message encodes into
// whatever buffer its frame is being assembled in with no intermediate
// object.

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendRaw appends an already-encoded event verbatim: event frames carry
// the publisher's bytes untouched, so framing a Raw is a copy, never a
// re-encode.
func appendRaw(b []byte, r *event.Raw) []byte { return append(b, r.Bytes()...) }

func appendRaws(b []byte, rs []*event.Raw) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendRaw(b, r)
	}
	return b
}

// reader is the matching decoder; it fails sticky on malformed input.
// Its interner (optional) deduplicates attribute and class names across
// every event decoded through it — one interner per connection.
type reader struct {
	b   []byte
	off int
	err error
	in  *event.Interner
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: %s at offset %d", msg, r.off)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail("truncated string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// value delegates to the canonical value decoding in package event.
func (r *reader) value() event.Value {
	if r.err != nil {
		return event.Value{}
	}
	v, n, err := event.DecodeValue(r.b[r.off:])
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("transport: %w (offset %d)", err, r.off)
		}
		return event.Value{}
	}
	r.off += n
	return v
}

// rawEvent validates one embedded event and returns its zero-copy Raw
// view (aliasing the frame body, which is owned by the frame's decoded
// message from here on).
func (r *reader) rawEvent() *event.Raw {
	if r.err != nil {
		return nil
	}
	raw, off, err := event.ParseRawAt(r.b, r.off, r.in)
	if err != nil {
		r.err = fmt.Errorf("transport: %w", err)
		return nil
	}
	r.off = off
	return raw
}

// --- filter encoding ---

func appendFilter(b []byte, f *filter.Filter) []byte {
	b = appendStr(b, f.Class)
	b = binary.AppendUvarint(b, uint64(len(f.Constraints)))
	for _, c := range f.Constraints {
		b = appendStr(b, c.Attr)
		b = append(b, uint8(c.Op))
		if c.Op.NeedsOperand() {
			b = event.AppendValue(b, c.Operand)
		}
	}
	return b
}

func (r *reader) filter() *filter.Filter {
	f := &filter.Filter{Class: r.str()}
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("constraint count exceeds frame")
		return nil
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		c := filter.Constraint{Attr: r.str(), Op: filter.Op(r.u8())}
		if c.Op.NeedsOperand() {
			c.Operand = r.value()
		}
		f.Constraints = append(f.Constraints, c)
	}
	if r.err != nil {
		return nil
	}
	return f
}

// AppendFrame appends one framed message — header, then body — to dst
// and returns the extended slice. Event frames embed the events' existing
// encodings verbatim: the only per-frame work is the copy. On error dst
// comes back unchanged.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type())) // length patched below
	dst = m.encode(dst)
	n := len(dst) - start - frameHeader
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("transport: frame too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// framePool recycles write buffers between flushes: a FrameBatch borrows
// one on its first Append and returns it when flushed, so framing costs no
// allocation in steady state and a connection with nothing to send holds
// no buffer. It stores pointers so that Put does not allocate.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// framePoolMax caps the buffers returned to the pool; an occasional
// giant frame must not pin its buffer for the process lifetime.
const framePoolMax = 1 << 20

// FrameBatch gathers encoded frames so that a connection's writer crosses
// the socket once per drain instead of once per frame: Append any number
// of messages, then Flush sends them with a single Write. The zero value
// is an empty batch. Not safe for concurrent use.
type FrameBatch struct {
	buf    *[]byte // borrowed from framePool while the batch is non-empty
	frames int
}

// Append encodes m at the end of the batch. A message that cannot be
// framed leaves the batch as it was.
func (b *FrameBatch) Append(m Message) error {
	if b.buf == nil {
		b.buf = framePool.Get().(*[]byte)
		if cap(*b.buf) == 0 {
			*b.buf = make([]byte, 0, 512)
		}
	}
	out, err := AppendFrame(*b.buf, m)
	*b.buf = out
	if err != nil {
		if len(out) == 0 {
			b.release()
		}
		return err
	}
	b.frames++
	return nil
}

// Len returns the number of encoded bytes waiting to be flushed.
func (b *FrameBatch) Len() int {
	if b.buf == nil {
		return 0
	}
	return len(*b.buf)
}

// Frames returns the number of frames waiting to be flushed.
func (b *FrameBatch) Frames() int { return b.frames }

// Flush sends the batch with one Write and empties it, whether or not
// the write succeeded: frames handed to a failed Write are lost with it.
func (b *FrameBatch) Flush(w io.Writer) error {
	if b.buf == nil {
		return nil
	}
	_, err := w.Write(*b.buf)
	b.release()
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

func (b *FrameBatch) release() {
	if cap(*b.buf) <= framePoolMax {
		*b.buf = (*b.buf)[:0]
		framePool.Put(b.buf)
	}
	b.buf, b.frames = nil, 0
}

// WriteFrame writes one framed message: header and body leave in a
// single Write from a pooled buffer.
func WriteFrame(w io.Writer, m Message) error {
	var b FrameBatch
	if err := b.Append(m); err != nil {
		return err
	}
	return b.Flush(w)
}

// frameLen parses and bounds the body length of a frame header.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	return int(n), nil
}

// bodyErr reports a read failure inside a frame: the stream ended (or
// broke) between a header and the end of its body.
func bodyErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("transport: read body: %w", err)
}

// ReadFrame reads one framed message with exact, unbuffered reads — it
// never consumes a byte past the frame, so one-shot readers (handshakes,
// files, tests) can hand the stream on. It does no cross-frame name
// interning. Connection read loops should use a FrameReader instead.
func ReadFrame(rd io.Reader) (Message, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(rd, body); err != nil {
		return nil, bodyErr(err)
	}
	return decodeMessage(MsgType(hdr[4]), &reader{b: body})
}

// A FrameReader's buffer starts at readAheadMin — a header and a small
// control frame — so that a connection with little to say costs next to
// nothing to hold, and doubles up to readAheadMax while reads come back
// full: within a few frames it is as large as the connection's frames, or
// as the backlog of a sender that outruns this reader, call for. Neither
// bounds the frame size: a body that does not fit is read straight into
// its own allocation.
const (
	readAheadMin = 64
	readAheadMax = 4 << 10
)

// FrameReader owns the read side of one connection. It reads ahead: one
// Read takes what the socket holds, up to the buffer's size, and the
// complete frames in it are decoded one after another without touching
// the socket again. It also interns attribute and class names across the
// connection's lifetime, so repeated event shapes decode without
// allocating names. Because of the read-ahead a connection must keep the
// same FrameReader for life: replacing it drops bytes already taken off
// the socket. Not safe for concurrent use.
type FrameReader struct {
	r        io.Reader
	buf      []byte // read-ahead, made by the first read; buf[pos:end] is unread
	pos, end int
	full     bool // the last read filled buf to the end
	reads    uint64
	dec      reader // reused per frame; holds the connection's interner
}

// NewFrameReader wraps a connection's read side.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, dec: reader{in: event.NewInterner()}}
}

// Reads returns how many Read calls the reader has made on its
// connection; against the number of frames returned it says how well
// reads batch.
func (fr *FrameReader) Reads() uint64 { return fr.reads }

// ReadFrame returns the next framed message, reading from the connection
// only when the buffer does not already hold it. The body is copied out
// of the buffer into an allocation of exactly its size: Raw views decoded
// from event frames alias it for their whole lifetime, and must pin
// nothing but their own frame.
func (fr *FrameReader) ReadFrame() (Message, error) {
	if fr.end-fr.pos < frameHeader {
		if err := fr.fill(frameHeader); err != nil {
			if err == io.EOF && fr.end > 0 {
				err = io.ErrUnexpectedEOF // the stream ended inside a header
			}
			return nil, err // io.EOF passes through for clean shutdown
		}
	}
	hdr := fr.buf[fr.pos : fr.pos+frameHeader]
	fr.pos += frameHeader
	t := MsgType(hdr[4])
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	got := copy(body, fr.buf[fr.pos:fr.end])
	fr.pos += got
	for got < n {
		// The buffer is spent. A long remainder goes straight into the
		// body; a short one comes with whatever follows it on the socket.
		if n-got >= len(fr.buf) {
			k, err := fr.r.Read(body[got:])
			fr.reads++
			got += k
			if err != nil && got < n {
				return nil, bodyErr(err)
			}
			continue
		}
		if err := fr.fill(1); err != nil {
			return nil, bodyErr(err)
		}
		k := copy(body[got:], fr.buf[fr.pos:fr.end])
		fr.pos += k
		got += k
	}
	fr.dec.b, fr.dec.off, fr.dec.err = body, 0, nil
	m, err := decodeMessage(t, &fr.dec)
	fr.dec.b = nil // a control frame's body is garbage from here on
	return m, err
}

// fill reads until at least need (at most readAheadMin) unread bytes sit
// in the buffer, first moving the unread tail to the front. Like
// io.ReadFull it drops an error that arrives together with the last byte
// needed.
func (fr *FrameReader) fill(need int) error {
	unread := fr.buf[fr.pos:fr.end]
	switch {
	case fr.buf == nil:
		fr.buf = make([]byte, readAheadMin)
	case fr.full && len(fr.buf) < readAheadMax:
		fr.buf = make([]byte, 2*len(fr.buf))
	}
	fr.pos, fr.end = 0, copy(fr.buf, unread)
	for fr.end < need {
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.reads++
		fr.end += n
		fr.full = fr.end == len(fr.buf)
		if err != nil && fr.end < need {
			return err
		}
	}
	return nil
}
