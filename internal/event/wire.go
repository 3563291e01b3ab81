package event

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// This file owns the compact binary encoding of values and events — the
// one representation an event has on the wire, in the durable store, and
// inside a Raw view. transport frames and store records embed it
// verbatim, so an event is encoded exactly once at publish and the same
// bytes travel every hop and land on disk unchanged.
//
// Layout of one encoded event:
//
//	str(class) uvarint(id) uvarint(nattrs) { str(name) value }* bytes(payload)
//
// where str and bytes are uvarint-length-prefixed and value is a 1-byte
// kind tag followed by the kind's payload.

// decodeCount counts full materializations of events from wire bytes
// (Raw.Event and Decode). It is a test hook: pipeline tests reset it,
// drive events through publish → forward → spill → replay → deliver, and
// assert the one-decode invariant. Never consulted by production code.
var decodeCount atomic.Uint64

// DecodeCount returns the number of full event materializations since
// process start (test hook for the decode-once invariant).
func DecodeCount() uint64 { return decodeCount.Load() }

// attrCapHint caps attribute-slice preallocation during decode and
// parse: attribute counts come off the wire, and a declared count must
// not reserve memory the bytes cannot back.
const attrCapHint = 1024

// AppendValue appends the wire encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, uint8(v.kind))
	switch v.kind {
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		dst = append(dst, v.str...)
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.num))
	case KindBool:
		if v.num != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeValue decodes one wire value from the front of b, returning the
// value and the number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("event: truncated value kind")
	}
	k := Kind(b[0])
	off := 1
	switch k {
	case KindString:
		n, w := binary.Uvarint(b[off:])
		if w <= 0 || uint64(len(b)-off-w) < n {
			return Value{}, 0, fmt.Errorf("event: truncated string value")
		}
		off += w
		return String(string(b[off : off+int(n)])), off + int(n), nil
	case KindInt:
		v, w := binary.Varint(b[off:])
		if w <= 0 {
			return Value{}, 0, fmt.Errorf("event: bad int value")
		}
		return Int(v), off + w, nil
	case KindFloat:
		if len(b)-off < 8 {
			return Value{}, 0, fmt.Errorf("event: truncated float value")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(b[off:]))), off + 8, nil
	case KindBool:
		if len(b)-off < 1 {
			return Value{}, 0, fmt.Errorf("event: truncated bool value")
		}
		return Bool(b[off] == 1), off + 1, nil
	default:
		return Value{}, 0, fmt.Errorf("event: unknown value kind %d", k)
	}
}

// valueLen validates one wire value at the front of b exactly as
// DecodeValue does and returns its encoded length, without materializing
// it: parsing a Raw view checks every value once and copies none.
func valueLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("event: truncated value kind")
	}
	switch k := Kind(b[0]); k {
	case KindString:
		n, w := binary.Uvarint(b[1:])
		if w <= 0 || uint64(len(b)-1-w) < n {
			return 0, fmt.Errorf("event: truncated string value")
		}
		return 1 + w + int(n), nil
	case KindInt:
		_, w := binary.Varint(b[1:])
		if w <= 0 {
			return 0, fmt.Errorf("event: bad int value")
		}
		return 1 + w, nil
	case KindFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("event: truncated float value")
		}
		return 9, nil
	case KindBool:
		if len(b) < 2 {
			return 0, fmt.Errorf("event: truncated bool value")
		}
		return 2, nil
	default:
		return 0, fmt.Errorf("event: unknown value kind %d", k)
	}
}

// AppendEncoded appends the wire encoding of e to dst and returns the
// extended slice. This is the single canonical event encoding: transport
// frames and store record bodies are byte-identical.
func AppendEncoded(dst []byte, e *Event) []byte {
	dst = appendString(dst, e.Type)
	dst = binary.AppendUvarint(dst, e.ID)
	dst = binary.AppendUvarint(dst, uint64(len(e.Attrs)))
	for _, a := range e.Attrs {
		dst = appendString(dst, a.Name)
		dst = AppendValue(dst, a.Value)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Payload)))
	return append(dst, e.Payload...)
}

// encodedLen returns len(AppendEncoded(nil, e)) without encoding, so
// that EncodeRaw allocates its bytes once, at their final size.
func encodedLen(e *Event) int {
	n := stringLen(e.Type) + uvarintLen(e.ID) + uvarintLen(uint64(len(e.Attrs)))
	for i := range e.Attrs {
		a := &e.Attrs[i]
		n += stringLen(a.Name) + 1
		switch a.Value.kind {
		case KindString:
			n += stringLen(a.Value.str)
		case KindInt:
			v := int64(a.Value.num)
			n += uvarintLen(uint64(v<<1) ^ uint64(v>>63)) // zig-zag, as binary.AppendVarint
		case KindFloat:
			n += 8
		case KindBool:
			n++
		}
	}
	return n + uvarintLen(uint64(len(e.Payload))) + len(e.Payload)
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Decode materializes one event from b, which must contain exactly one
// encoded event with no trailing bytes.
func Decode(b []byte) (*Event, error) {
	r, err := ParseRaw(b, nil)
	if err != nil {
		return nil, err
	}
	return r.Event(), nil
}

// readString reads one length-prefixed string at off. With a non-nil
// interner the string is deduplicated against the interner's pool
// (attribute and class names repeat heavily across a connection's
// events; interning makes their decode allocation-free in steady state).
func readString(b []byte, off int, in *Interner) (string, int, error) {
	n, w := binary.Uvarint(b[off:])
	if w <= 0 || n > uint64(len(b)-off-w) {
		return "", 0, fmt.Errorf("event: truncated string at offset %d", off)
	}
	off += w
	raw := b[off : off+int(n)]
	if in != nil {
		return in.Intern(raw), off + int(n), nil
	}
	return string(raw), off + int(n), nil
}
