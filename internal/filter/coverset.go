package filter

import (
	"math"

	"eventsys/internal/event"
)

// CoverSet is a set of stored ("weak") filters indexed for one question:
// does any of them cover a given filter? Each filter is filed under one
// anchor: its first OpEq with a string, number or boolean operand, keyed
// by (attribute, value) — numbers by their float64 bits with −0 folded,
// so Int(5) and Float(5) meet, NaN never — else its first string
// OpPrefix, keyed by (attribute, prefix), else the unanchored chain.
//
// A query runs the exact Strong.CoveredBy on the unanchored chain, on the
// equality chain of each attribute it pins to one value (an equality, or
// a non-strict one-point interval), and on the prefix chain of every
// prefix of its string equalities and, where it has none, of its own
// prefixes. Every filter skipped is one CoveredBy or domain.superset
// refuses anyway — a weak equality covers only a strong side pinned to
// that value, a weak prefix only an equality or prefix extending it — so
// verdicts are those of checking every stored filter. Anchors are 64-bit
// hashes: a collision only adds a candidate the exact check rejects.
//
// The zero CoverSet is empty and ready to use. Filters are kept as given
// (callers clone), in insertion order. Not safe for concurrent use.
type CoverSet struct {
	filters []*Filter
	// next chains filters sharing an anchor: next[i] is 1 + the index of
	// the previous filter on filters[i]'s chain, 0 at its end. heads and
	// loose hold 1 + the newest index of each chain.
	next  []int32
	heads map[uint64]int32
	loose int32
}

// unanchoredMax bounds the sets that keep every filter on the unanchored
// chain and allocate no anchor map: checking that many costs about what
// the lookups would, and one-filter subscribers stay as cheap as a slice.
const unanchoredMax = 8

// Len reports the number of stored filters.
func (s *CoverSet) Len() int { return len(s.filters) }

// Filters returns the stored filters in insertion order. The slice
// belongs to the set.
func (s *CoverSet) Filters() []*Filter { return s.filters }

// Add stores f, which the set keeps by reference.
func (s *CoverSet) Add(f *Filter) {
	s.filters = append(s.filters, f)
	s.next = append(s.next, 0)
	if len(s.filters) == unanchoredMax+1 { // outgrew the plain chain
		s.heads, s.loose = make(map[uint64]int32), 0
		for i := range s.filters {
			s.file(i)
		}
		return
	}
	s.file(len(s.filters) - 1)
}

// file puts filters[i] at the head of its anchor's chain, or of the
// unanchored chain.
func (s *CoverSet) file(i int) {
	if s.heads != nil {
		if key, ok := anchorOf(s.filters[i]); ok {
			s.next[i], s.heads[key] = s.heads[key], int32(i)+1
			return
		}
	}
	s.next[i], s.loose = s.loose, int32(i)+1
}

// CoveredByAny reports whether any stored filter covers f under conf —
// the verdict of calling Covers on each — and how many exact covering
// checks deciding it took.
func (s *CoverSet) CoveredByAny(f *Filter, conf Conformance) (covered bool, checks int) {
	if len(s.filters) == 0 {
		return false, 0
	}
	strong := NewStrong(f, conf)
	if strong.unsat {
		return true, 0 // covered by everything, and the set is not empty
	}
	if s.chain(s.loose, strong, &checks) {
		return true, checks
	}
	for i := 0; s.heads != nil && i < len(strong.doms); i++ {
		attr, d := strong.doms[i].attr, &strong.doms[i].domain
		if v, ok := d.pinned(); ok {
			if key, ok := eqAnchor(attr, v); ok && s.chain(s.heads[key], strong, &checks) {
				return true, checks
			}
		}
		// domain.guaranteesPrefix consults the equality alone when there
		// is one. Two own prefixes may walk a shared shorter one twice.
		prefixes := d.prefixes
		if d.hasEq() {
			prefixes = nil
			if d.eq.Kind() == event.KindString {
				prefixes = []string{d.eq.Str()}
			}
		}
		for _, p := range prefixes {
			// The key of p[:n] is the running hash of its bytes.
			h := anchorHash(attr, anchorPrefix)
			for n := 0; ; n++ {
				if s.chain(s.heads[h], strong, &checks) {
					return true, checks
				}
				if n == len(p) {
					break
				}
				h = hashByte(h, p[n])
			}
		}
	}
	return false, checks
}

// chain runs the exact check on the chain starting at head (1-based, 0 =
// empty), counting checks.
func (s *CoverSet) chain(head int32, strong *Strong, checks *int) bool {
	for i := head; i != 0; i = s.next[i-1] {
		*checks++
		if strong.CoveredBy(s.filters[i-1]) {
			return true
		}
	}
	return false
}

// Anchor kinds, hashed between the attribute and the value.
const (
	anchorString byte = iota + 1
	anchorNumber
	anchorBool
	anchorPrefix
)

// anchorOf returns f's anchor key, false when f has none.
func anchorOf(f *Filter) (uint64, bool) {
	for _, c := range f.Constraints {
		if c.Op == OpEq {
			if key, ok := eqAnchor(c.Attr, c.Operand); ok {
				return key, true
			}
		}
	}
	for _, c := range f.Constraints {
		if c.Op == OpPrefix && c.Operand.Kind() == event.KindString {
			return hashString(anchorHash(c.Attr, anchorPrefix), c.Operand.Str()), true
		}
	}
	return 0, false
}

// eqAnchor keys an equality on attr so that Equal values key alike. NaN
// equals nothing and invalid values match nothing: neither is anchored.
func eqAnchor(attr string, v event.Value) (uint64, bool) {
	n := v.Num()
	switch v.Kind() {
	case event.KindString:
		return hashString(anchorHash(attr, anchorString), v.Str()), true
	case event.KindBool:
		return hashUint64(anchorHash(attr, anchorBool), math.Float64bits(n)), true
	case event.KindInt, event.KindFloat:
		if n == 0 {
			n = 0 // fold −0
		}
		return hashUint64(anchorHash(attr, anchorNumber), math.Float64bits(n)), !math.IsNaN(n)
	}
	return 0, false
}

// FNV-1a, 64-bit, over the attribute, the anchor kind and the value.
const fnvPrime = 1099511628211

func anchorHash(attr string, kind byte) uint64 {
	return hashByte(hashString(14695981039346656037, attr), kind)
}

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

func hashUint64(h, v uint64) uint64 {
	for range 8 {
		h, v = hashByte(h, byte(v)), v>>8
	}
	return h
}
