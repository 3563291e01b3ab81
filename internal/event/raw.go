package event

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Raw is the canonical encoded representation of an event: the wire
// bytes wrapped in a validated, lazily-evaluated view. Class, ID and the
// attribute cursor are readable without materializing an *Event, so
// brokers match, batch, forward, persist and replay events as the very
// bytes the publisher encoded — one encode per publish, and a full
// decode only where a subscriber handler finally needs the object form.
//
// A Raw is immutable after construction; its byte slice is shared, never
// copied, and must not be mutated by the owner of the backing buffer.
// The lazy caches (attribute index, materialized event) build at most
// once via atomic publication, so concurrent readers — brokers and local
// subscribers sharing one event — are safe without locks.
type Raw struct {
	b     []byte
	class string
	id    uint64
	attrs []rawAttr
	// payOff/payLen bound the payload bytes inside b.
	payOff, payLen int

	// idx is the lazily-built attribute index for wide events (see
	// Lookup); dec is the at-most-once materialized *Event.
	idx atomic.Pointer[map[string]int]
	dec atomic.Pointer[Event]

	// stamp is the hop-tracing arrival timestamp (obs.Nanotime units),
	// zero when tracing is off. It rides the in-process view only — never
	// the wire bytes — and must be set before the Raw is shared.
	stamp int64
}

// rawAttr locates one attribute inside the encoded bytes: its interned
// (or copied) name, and the offset of its value encoding.
type rawAttr struct {
	name string
	off  int32
}

// Interner deduplicates attribute and class names decoded from wire
// bytes. Names repeat heavily across a connection's events (every Stock
// tick carries "symbol" and "price"), so a per-connection interner makes
// name decode allocation-free in steady state. Not safe for concurrent
// use; give each connection (or replay scan) its own.
type Interner struct {
	pool map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{pool: make(map[string]string)} }

// maxInternerEntries bounds an interner's pool: past it, new names are
// returned as plain copies instead of being retained. Legitimate
// workloads publish a bounded set of attribute and class names, so the
// cap never bites them; a hostile stream of unique names costs itself
// allocations instead of growing the broker's memory without bound.
const maxInternerEntries = 4096

// Intern returns the pooled string equal to b, adding it on first sight.
// The map lookup keyed by a converted byte slice does not allocate.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.pool[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.pool) < maxInternerEntries {
		in.pool[s] = s
	}
	return s
}

// EncodeRaw encodes e once and wraps the bytes in a Raw view. The view's
// cursor metadata is built directly from e — no validation re-walk — and
// the decoded form is pre-seeded with e itself, so a local round trip
// (encode at publish, deliver in-process) never decodes at all.
func EncodeRaw(e *Event) *Raw {
	b := AppendEncoded(make([]byte, 0, encodedLen(e)), e)
	r := newRaw(uint64(len(e.Attrs)))
	r.b, r.class, r.id, r.stamp = b, e.Type, e.ID, e.stamp
	// Re-derive attribute offsets with a cheap skip-walk (names and value
	// framing only; values are not decoded).
	off := skipString(b, 0)
	_, w := binary.Uvarint(b[off:])
	off += w // id
	_, w = binary.Uvarint(b[off:])
	off += w // attr count
	for i := range e.Attrs {
		off = skipString(b, off)
		r.attrs = append(r.attrs, rawAttr{name: e.Attrs[i].Name, off: int32(off)})
		off = skipValue(b, off)
	}
	pn, w := binary.Uvarint(b[off:])
	r.payOff, r.payLen = off+w, int(pn)
	r.dec.Store(e)
	return r
}

// newRaw returns a Raw with room for n attributes. Up to eight, the
// attribute table shares the view's allocation — every event on the frame
// path costs one object, not two — in the smallest of three sizes that
// holds it; wider events (and untrusted counts, which are capped) get a
// table of their own that grows as attributes prove real.
func newRaw(n uint64) *Raw {
	switch {
	case n == 0:
		return new(Raw)
	case n <= 2:
		v := new(struct {
			Raw
			tab [2]rawAttr
		})
		v.attrs = v.tab[:0]
		return &v.Raw
	case n <= 4:
		v := new(struct {
			Raw
			tab [4]rawAttr
		})
		v.attrs = v.tab[:0]
		return &v.Raw
	case n <= 8:
		v := new(struct {
			Raw
			tab [8]rawAttr
		})
		v.attrs = v.tab[:0]
		return &v.Raw
	}
	return &Raw{attrs: make([]rawAttr, 0, min(n, attrCapHint))}
}

// skipString advances past one length-prefixed string (caller guarantees
// validity — EncodeRaw walks bytes it just produced).
func skipString(b []byte, off int) int {
	n, w := binary.Uvarint(b[off:])
	return off + w + int(n)
}

// skipValue advances past one encoded value (caller guarantees validity).
func skipValue(b []byte, off int) int {
	switch Kind(b[off]) {
	case KindString:
		return skipString(b, off+1)
	case KindInt:
		_, w := binary.Varint(b[off+1:])
		return off + 1 + w
	case KindFloat:
		return off + 9
	case KindBool:
		return off + 2
	}
	return off + 1
}

// ParseRaw validates b as exactly one encoded event and returns its Raw
// view. The view aliases b — callers hand over ownership; the buffer
// must stay immutable for the Raw's lifetime (never a pooled buffer).
// Malformed or truncated input returns an error, never panics, and a
// successful parse guarantees every later cursor read is in-bounds.
func ParseRaw(b []byte, in *Interner) (*Raw, error) {
	r, off, err := ParseRawAt(b, 0, in)
	if err != nil {
		return nil, err
	}
	if off != len(b) {
		return nil, fmt.Errorf("event: %d trailing bytes after event", len(b)-off)
	}
	return r, nil
}

// ParseRawAt validates one encoded event starting at off inside b and
// returns its Raw view plus the offset just past it. The view aliases
// b[off:end] — frames carrying several events share one buffer. in, when
// non-nil, interns class and attribute names.
func ParseRawAt(b []byte, off int, in *Interner) (*Raw, int, error) {
	start := off
	class, off, err := readString(b, off, in)
	if err != nil {
		return nil, 0, err
	}
	id, w := binary.Uvarint(b[off:])
	if w <= 0 {
		return nil, 0, fmt.Errorf("event: bad id varint at offset %d", off)
	}
	off += w
	n, w := binary.Uvarint(b[off:])
	if w <= 0 {
		return nil, 0, fmt.Errorf("event: bad attr count at offset %d", off)
	}
	off += w
	if n > uint64(len(b)-off) {
		return nil, 0, fmt.Errorf("event: attribute count %d exceeds buffer", n)
	}
	r := newRaw(n) // n is attacker-controlled; newRaw caps what it reserves
	r.class, r.id = class, id
	for i := uint64(0); i < n; i++ {
		var name string
		name, off, err = readString(b, off, in)
		if err != nil {
			return nil, 0, err
		}
		valOff := off
		// Validate the value fully now, so cursor reads cannot fail later.
		if w, err = valueLen(b[off:]); err != nil {
			return nil, 0, err
		}
		off += w
		r.attrs = append(r.attrs, rawAttr{name: name, off: int32(valOff - start)})
	}
	pn, w := binary.Uvarint(b[off:])
	if w <= 0 || pn > uint64(len(b)-off-w) {
		return nil, 0, fmt.Errorf("event: truncated payload at offset %d", off)
	}
	off += w
	r.payOff, r.payLen = off-start, int(pn)
	off += int(pn)
	r.b = b[start:off:off]
	return r, off, nil
}

// SetStamp records the hop-tracing arrival timestamp. Call it only on
// the goroutine that constructed the Raw, before any concurrent sharing.
func (r *Raw) SetStamp(ns int64) { r.stamp = ns }

// Stamp returns the hop-tracing arrival timestamp, or zero when the
// event was not stamped (tracing disabled).
func (r *Raw) Stamp() int64 { return r.stamp }

// Bytes returns the encoded event, exactly as it travels on the wire and
// lands in the store. Callers must not mutate it.
func (r *Raw) Bytes() []byte { return r.b }

// Class returns the event class name (the reserved "class" attribute).
func (r *Raw) Class() string { return r.class }

// EventID returns the publisher-assigned sequence identifier.
func (r *Raw) EventID() uint64 { return r.id }

// NumAttrs reports the number of exposed attributes.
func (r *Raw) NumAttrs() int { return len(r.attrs) }

// AttrAt returns attribute i, its value decoded on demand (View).
func (r *Raw) AttrAt(i int) (string, Value) {
	return r.attrs[i].name, r.valueAt(i)
}

// Payload returns the opaque payload bytes (aliasing the encoding; do
// not mutate).
func (r *Raw) Payload() []byte {
	if r.payLen == 0 {
		return nil
	}
	return r.b[r.payOff : r.payOff+r.payLen : r.payOff+r.payLen]
}

// Lookup returns the named attribute's value, decoded on demand from the
// wire bytes; TypeAttr resolves to the class. Wide events build an
// attribute index on first use (lookupIndexMin, shared with *Event) and
// reuse it across all filter evaluations of the event; the index is
// published atomically, so concurrent readers (brokers and parallel
// subscribers sharing the event) are safe.
func (r *Raw) Lookup(name string) (Value, bool) {
	if name == TypeAttr {
		return String(r.class), true
	}
	if len(r.attrs) >= lookupIndexMin {
		idx := r.idx.Load()
		if idx == nil {
			m := make(map[string]int, len(r.attrs))
			// First binding wins on duplicate names, matching linear scan.
			for i := len(r.attrs) - 1; i >= 0; i-- {
				m[r.attrs[i].name] = i
			}
			r.idx.CompareAndSwap(nil, &m)
			idx = &m
		}
		i, ok := (*idx)[name]
		if !ok {
			return Value{}, false
		}
		return r.valueAt(i), true
	}
	for i := range r.attrs {
		if r.attrs[i].name == name {
			return r.valueAt(i), true
		}
	}
	return Value{}, false
}

// Has reports whether the event carries the named attribute.
func (r *Raw) Has(name string) bool {
	_, ok := r.Lookup(name)
	return ok
}

// Range iterates the attributes in event order, decoding each value on
// demand; fn returning false stops the iteration.
func (r *Raw) Range(fn func(name string, v Value) bool) {
	for i := range r.attrs {
		if !fn(r.attrs[i].name, r.valueAt(i)) {
			return
		}
	}
}

// valueAt decodes attribute i's value from the wire bytes. ParseRaw
// validated every value, so this cannot fail. String values alias the
// encoding instead of copying: r.b is immutable for the Raw's lifetime,
// so the unsafe.String view is sound, and per-constraint evaluation of
// string attributes stays allocation-free.
func (r *Raw) valueAt(i int) Value {
	off := int(r.attrs[i].off)
	if Kind(r.b[off]) == KindString {
		n, w := binary.Uvarint(r.b[off+1:])
		s := r.b[off+1+w : off+1+w+int(n)]
		if len(s) == 0 {
			return String("")
		}
		return String(unsafe.String(&s[0], len(s)))
	}
	v, _, _ := DecodeValue(r.b[off:])
	return v
}

// Event materializes the full *Event, at most once: the first call
// decodes (counted by the DecodeCount test hook) and later calls — from
// any goroutine — share the same immutable decoded event. Local
// subscribers of one broker therefore all see a single decoded instance
// instead of a clone each. The class and attribute names are the view's
// own (interned at parse), not fresh copies; values and payload are
// copied out, so the event does not keep the frame alive. ParseRaw
// validated every value, so this cannot fail.
func (r *Raw) Event() *Event {
	if e := r.dec.Load(); e != nil {
		return e
	}
	decodeCount.Add(1)
	e := &Event{Type: r.class, ID: r.id, stamp: r.stamp}
	if len(r.attrs) > 0 {
		e.Attrs = make([]Attribute, len(r.attrs))
		for i, a := range r.attrs {
			v, _, _ := DecodeValue(r.b[a.off:])
			e.Attrs[i] = Attribute{Name: a.name, Value: v}
		}
	}
	e.Payload = bytes.Clone(r.Payload())
	if !r.dec.CompareAndSwap(nil, e) {
		return r.dec.Load()
	}
	return e
}
