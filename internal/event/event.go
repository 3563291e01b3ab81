package event

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// TypeAttr is the reserved attribute carrying the event's type (class)
// name. It is always the most general attribute: filtering on it alone
// degenerates to topic-based addressing (Section 3.4, filter g3).
const TypeAttr = "class"

// Attribute is a single name-value pair of an event.
type Attribute struct {
	Name  string
	Value Value
}

// View is the read interface filters and matching engines evaluate
// against: the decoded *Event and the zero-copy *Raw wire view both
// implement it, so the whole matching stack runs without forcing a
// materialization.
type View interface {
	// Class returns the event class name.
	Class() string
	// Lookup returns the named attribute's value; TypeAttr resolves to
	// the class as a string value.
	Lookup(name string) (Value, bool)
	// NumAttrs reports the number of exposed attributes.
	NumAttrs() int
	// AttrAt returns attribute i (0 ≤ i < NumAttrs) — the closure-free
	// iteration hot matching loops prefer.
	AttrAt(i int) (string, Value)
	// Range iterates the attributes in event order; fn returning false
	// stops the iteration.
	Range(fn func(name string, v Value) bool)
}

// Event is the low-level property-set representation of an event: an event
// type (class) name, an ordered attribute list, and an opaque payload
// carrying the original encapsulated object, if any.
//
// Attribute order is meaningful: publishers advertise attributes ordered
// from most general to least general (Section 4.1), and weakening keeps
// prefixes of that order. Events preserve the advertised order.
type Event struct {
	// Type is the event class name, also exposed as the TypeAttr attribute.
	Type string
	// Attrs are the exposed attributes, excluding TypeAttr.
	Attrs []Attribute
	// Payload is the opaque serialized application object. Brokers never
	// inspect it; only the subscriber runtime deserializes it.
	Payload []byte
	// ID is a publisher-assigned sequence identifier, used by the
	// evaluation harness to track duplicate-free delivery.
	ID uint64

	// idx is the lazily-built attribute index for wide events, published
	// atomically so concurrent Lookup calls (events are shared across
	// subscribers and brokers) stay race-free. Set invalidates
	// it; Clone and Project drop it.
	idx atomic.Pointer[map[string]int]
	// raw is the at-most-once encoded form (see Raw): the spill and wire
	// paths of one process share a single encoding of the event.
	raw atomic.Pointer[Raw]

	// stamp is the hop-tracing arrival timestamp (obs.Nanotime units),
	// zero when tracing is off. Set before the event is shared.
	stamp int64
}

// SetStamp records the hop-tracing arrival timestamp. Call it only
// before the event is shared across goroutines.
func (e *Event) SetStamp(ns int64) { e.stamp = ns }

// Stamp returns the hop-tracing arrival timestamp, or zero when the
// event was not stamped (tracing disabled).
func (e *Event) Stamp() int64 { return e.stamp }

// Class returns the event class name (View).
func (e *Event) Class() string { return e.Type }

// NumAttrs reports the number of exposed attributes (View).
func (e *Event) NumAttrs() int { return len(e.Attrs) }

// AttrAt returns attribute i (View).
func (e *Event) AttrAt(i int) (string, Value) {
	return e.Attrs[i].Name, e.Attrs[i].Value
}

// Range iterates the attributes in event order (View); fn returning
// false stops the iteration.
func (e *Event) Range(fn func(name string, v Value) bool) {
	for _, a := range e.Attrs {
		if !fn(a.Name, a.Value) {
			return
		}
	}
}

// Raw returns the event's canonical encoded form, encoding at most once:
// every later call — from any goroutine — shares the same Raw, whose
// decoded cache points straight back at e (a local round trip never
// decodes). Mutating the event through Set invalidates the cache;
// mutating fields directly after Raw has been called is a contract
// violation (the encoding would go stale).
func (e *Event) Raw() *Raw {
	if r := e.raw.Load(); r != nil {
		return r
	}
	r := EncodeRaw(e)
	if !e.raw.CompareAndSwap(nil, r) {
		return e.raw.Load()
	}
	return r
}

// invalidate drops the lazy caches after a mutation.
func (e *Event) invalidate() {
	e.idx.Store(nil)
	e.raw.Store(nil)
}

// New constructs an event of the given type with a copy of the given
// attributes.
func New(eventType string, attrs ...Attribute) *Event {
	e := &Event{Type: eventType, Attrs: make([]Attribute, len(attrs))}
	copy(e.Attrs, attrs)
	return e
}

// lookupIndexMin is the attribute count past which Lookup builds (once)
// a name→position index instead of scanning linearly; on wide events the
// index is reused across every filter evaluation of the event.
const lookupIndexMin = 8

// Lookup returns the value of the named attribute. The reserved TypeAttr
// name resolves to the event type as a string value. Wide events index
// their attributes lazily, once, and the index is published atomically —
// an event shared by many subscribers or brokers is looked up
// concurrently without races.
func (e *Event) Lookup(name string) (Value, bool) {
	if name == TypeAttr {
		return String(e.Type), true
	}
	if len(e.Attrs) >= lookupIndexMin {
		idx := e.idx.Load()
		if idx == nil {
			m := make(map[string]int, len(e.Attrs))
			// Walk backwards so the first occurrence of a duplicated name
			// wins, matching the linear scan.
			for i := len(e.Attrs) - 1; i >= 0; i-- {
				m[e.Attrs[i].Name] = i
			}
			e.idx.CompareAndSwap(nil, &m)
			idx = &m
		}
		if i, ok := (*idx)[name]; ok {
			return e.Attrs[i].Value, true
		}
		return Value{}, false
	}
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return Value{}, false
}

// Has reports whether the event carries the named attribute.
func (e *Event) Has(name string) bool {
	_, ok := e.Lookup(name)
	return ok
}

// Set replaces the named attribute value, appending it if absent. Setting
// TypeAttr updates the event type. Set drops the lazy lookup index and
// cached encoding; events already handed to Publish are immutable by
// convention and must not be Set concurrently with matching.
func (e *Event) Set(name string, v Value) {
	defer e.invalidate()
	if name == TypeAttr {
		e.Type = v.Str()
		return
	}
	for i, a := range e.Attrs {
		if a.Name == name {
			e.Attrs[i].Value = v
			return
		}
	}
	e.Attrs = append(e.Attrs, Attribute{Name: name, Value: v})
}

// Project returns a new event keeping only the attributes whose names are
// in keep (the event type and payload reference are always preserved).
// This is the event transformation of Section 3.3: the projected event
// covers the original for every filter expressed over the kept attributes.
func (e *Event) Project(keep func(name string) bool) *Event {
	p := &Event{Type: e.Type, Payload: e.Payload, ID: e.ID}
	for _, a := range e.Attrs {
		if keep(a.Name) {
			p.Attrs = append(p.Attrs, a)
		}
	}
	return p
}

// Clone returns a deep copy of the event (the payload bytes are shared,
// as they are immutable by convention; the lazy caches are not carried
// over — the clone exists to be mutated).
func (e *Event) Clone() *Event {
	c := &Event{Type: e.Type, Payload: e.Payload, ID: e.ID}
	c.Attrs = make([]Attribute, len(e.Attrs))
	copy(c.Attrs, e.Attrs)
	return c
}

// Names returns the attribute names in event order.
func (e *Event) Names() []string {
	names := make([]string, len(e.Attrs))
	for i, a := range e.Attrs {
		names[i] = a.Name
	}
	return names
}

// String renders the event in the paper's tuple notation:
// (class,"Stock") (symbol,"Foo") (price,10).
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s,%q)", TypeAttr, e.Type)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " (%s,%s)", a.Name, a.Value)
	}
	return b.String()
}

// Equal reports structural equality of two events, ignoring payload and ID
// and treating attribute order as irrelevant.
func (e *Event) Equal(o *Event) bool {
	if e.Type != o.Type || len(e.Attrs) != len(o.Attrs) {
		return false
	}
	ea, oa := sortedAttrs(e.Attrs), sortedAttrs(o.Attrs)
	for i := range ea {
		if ea[i].Name != oa[i].Name || !ea[i].Value.Equal(oa[i].Value) {
			return false
		}
	}
	return true
}

func sortedAttrs(attrs []Attribute) []Attribute {
	s := make([]Attribute, len(attrs))
	copy(s, attrs)
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}
