package filter

import (
	"strings"

	"eventsys/internal/event"
)

// domain is the canonical form of all constraints a filter places on a
// single attribute: an optional exact value, excluded values, an interval,
// and string-pattern requirements. Covering (Definition 2) reduces to a
// per-attribute superset check between domains. The exact value and the
// bounds are held by value, unset while their Value is invalid, so a
// domain over equalities and intervals is built without allocating.
//
// The canonicalization is conservative: combinations it cannot reason
// about are marked unsupported, and unsupported domains never claim to
// cover anything. For pre-filtering this is the safe direction — a missed
// covering keeps an extra filter around, whereas a wrongly claimed
// covering would drop events.
type domain struct {
	contradictory bool // provably unsatisfiable
	unsupported   bool // cannot reason; never claim coverage either way
	wildcardOnly  bool // only OpAny/OpExists constraints: any present value

	eq       event.Value // valid when the attribute is pinned by OpEq
	ne       []event.Value
	lo, hi   bound
	prefixes []string
	suffixes []string
	contains []string
}

// bound is one end of an interval; the zero bound is absent.
type bound struct {
	v      event.Value
	strict bool
}

func (b bound) set() bool { return b.v.IsValid() }

func (d *domain) hasEq() bool { return d.eq.IsValid() }

// family classifies the value kinds a domain's constraints speak about.
type family int

const (
	famNone family = iota
	famNumeric
	famString
	famBool
	famMixed
)

func familyOf(v event.Value) family {
	switch v.Kind() {
	case event.KindString:
		return famString
	case event.KindInt, event.KindFloat:
		return famNumeric
	case event.KindBool:
		return famBool
	default:
		return famMixed
	}
}

// build canonicalizes the constraints of cs on attr into the zero
// domain d; constraints on other attributes are skipped, so a filter's
// constraint list is walked in place.
func (d *domain) build(cs []Constraint, attr string) {
	d.wildcardOnly = true
	fam := famNone
	join := func(v event.Value) bool {
		f := familyOf(v)
		if f == famMixed {
			d.unsupported = true
			return false
		}
		if fam == famNone {
			fam = f
			return true
		}
		if fam != f {
			// A single value cannot be comparable to two different
			// families; the conjunction is unsatisfiable.
			d.contradictory = true
			return false
		}
		return true
	}
	for _, c := range cs {
		if c.Attr != attr || c.IsWildcard() {
			continue
		}
		d.wildcardOnly = false
		switch c.Op {
		case OpEq:
			if !join(c.Operand) {
				return
			}
			if d.hasEq() && !d.eq.Equal(c.Operand) {
				d.contradictory = true
				return
			}
			d.eq = c.Operand
		case OpNe:
			// Ne is pure exclusion: it imposes no kind family (values of
			// other kinds trivially satisfy it), so no join here.
			d.ne = append(d.ne, c.Operand)
		case OpLt, OpLe:
			if !join(c.Operand) {
				return
			}
			nb := bound{v: c.Operand, strict: c.Op == OpLt}
			if !d.hi.set() || tighterHigh(nb, d.hi) {
				d.hi = nb
			}
		case OpGt, OpGe:
			if !join(c.Operand) {
				return
			}
			nb := bound{v: c.Operand, strict: c.Op == OpGt}
			if !d.lo.set() || tighterLow(nb, d.lo) {
				d.lo = nb
			}
		case OpPrefix, OpSuffix, OpContains:
			if c.Operand.Kind() != event.KindString {
				d.contradictory = true
				return
			}
			if fam == famNone {
				fam = famString
			} else if fam != famString {
				d.contradictory = true
				return
			}
			switch c.Op {
			case OpPrefix:
				d.prefixes = append(d.prefixes, c.Operand.Str())
			case OpSuffix:
				d.suffixes = append(d.suffixes, c.Operand.Str())
			default:
				d.contains = append(d.contains, c.Operand.Str())
			}
		default:
			d.unsupported = true
			return
		}
	}
	d.checkContradictions()
}

// firstOnAttr reports whether cs[i] is the first constraint of cs on its
// attribute: iterating the indexes for which it holds visits each
// constrained attribute once, in first-seen order, without building a
// set.
func firstOnAttr(cs []Constraint, i int) bool {
	for _, c := range cs[:i] {
		if c.Attr == cs[i].Attr {
			return false
		}
	}
	return true
}

// tighterHigh reports whether a is a strictly tighter upper bound than b.
func tighterHigh(a, b bound) bool {
	c, ok := a.v.Compare(b.v)
	if !ok {
		return false
	}
	return c < 0 || (c == 0 && a.strict && !b.strict)
}

// tighterLow reports whether a is a strictly tighter lower bound than b.
func tighterLow(a, b bound) bool {
	c, ok := a.v.Compare(b.v)
	if !ok {
		return false
	}
	return c > 0 || (c == 0 && a.strict && !b.strict)
}

func (d *domain) checkContradictions() {
	if d.contradictory || d.unsupported {
		return
	}
	if d.lo.set() && d.hi.set() {
		c, ok := d.lo.v.Compare(d.hi.v)
		if !ok {
			d.contradictory = true
			return
		}
		if c > 0 || (c == 0 && (d.lo.strict || d.hi.strict)) {
			d.contradictory = true
			return
		}
	}
	if d.hasEq() && !d.admitsValue(d.eq) {
		d.contradictory = true
	}
}

// admitsValue reports whether the domain's interval, exclusions and
// patterns allow the given value. (eq is not consulted by design: callers
// use it to validate eq itself.)
func (d *domain) admitsValue(v event.Value) bool {
	if d.lo.set() {
		c, ok := v.Compare(d.lo.v)
		if !ok || c < 0 || (c == 0 && d.lo.strict) {
			return false
		}
	}
	if d.hi.set() {
		c, ok := v.Compare(d.hi.v)
		if !ok || c > 0 || (c == 0 && d.hi.strict) {
			return false
		}
	}
	for _, x := range d.ne {
		if v.Equal(x) {
			return false
		}
	}
	if len(d.prefixes)+len(d.suffixes)+len(d.contains) > 0 {
		if v.Kind() != event.KindString {
			return false
		}
		s := v.Str()
		for _, p := range d.prefixes {
			if !strings.HasPrefix(s, p) {
				return false
			}
		}
		for _, p := range d.suffixes {
			if !strings.HasSuffix(s, p) {
				return false
			}
		}
		for _, p := range d.contains {
			if !strings.Contains(s, p) {
				return false
			}
		}
	}
	return true
}

// superset reports whether every value admitted by s is admitted by w
// ("w is weaker than or equal to s" on this attribute). Conservative:
// returns false when it cannot prove the relation.
func (w *domain) superset(s *domain) bool {
	if s.contradictory {
		return true // vacuous
	}
	if w.contradictory {
		return false // nothing satisfies w, but something satisfies s
	}
	if w.wildcardOnly {
		return true
	}
	if w.unsupported || s.unsupported {
		return false
	}
	// Exact value on the weak side: the strong side must force it.
	if w.hasEq() {
		if v, ok := s.pinned(); ok && v.Equal(w.eq) {
			return w.admitsValue(v)
		}
		return false
	}
	// Interval bounds.
	if w.lo.set() && !s.guaranteesLow(w.lo) {
		return false
	}
	if w.hi.set() && !s.guaranteesHigh(w.hi) {
		return false
	}
	// Exclusions: every value w rejects must already be rejected by s.
	for _, x := range w.ne {
		if !s.excludes(x) {
			return false
		}
	}
	// Patterns.
	for _, p := range w.prefixes {
		if !s.guaranteesPrefix(p) {
			return false
		}
	}
	for _, p := range w.suffixes {
		if !s.guaranteesSuffix(p) {
			return false
		}
	}
	for _, p := range w.contains {
		if !s.guaranteesContains(p) {
			return false
		}
	}
	return true
}

// pinned returns the single value a satisfiable domain admits, when it
// admits only one: its equality, or a non-strict interval whose ends
// compare equal.
func (s *domain) pinned() (event.Value, bool) {
	if s.hasEq() {
		return s.eq, true
	}
	if !s.lo.set() || !s.hi.set() || s.lo.strict || s.hi.strict {
		return event.Value{}, false
	}
	c, ok := s.lo.v.Compare(s.hi.v)
	return s.lo.v, ok && c == 0
}

// guaranteesLow reports whether s guarantees the weak lower bound wb.
func (s *domain) guaranteesLow(wb bound) bool {
	if s.hasEq() {
		c, ok := s.eq.Compare(wb.v)
		return ok && (c > 0 || (c == 0 && !wb.strict))
	}
	if !s.lo.set() {
		return false
	}
	c, ok := s.lo.v.Compare(wb.v)
	if !ok {
		return false
	}
	// s: v >(=) s.lo ; needs to imply v >(=) wb.v
	return c > 0 || (c == 0 && (!wb.strict || s.lo.strict))
}

// guaranteesHigh reports whether s guarantees the weak upper bound wb.
func (s *domain) guaranteesHigh(wb bound) bool {
	if s.hasEq() {
		c, ok := s.eq.Compare(wb.v)
		return ok && (c < 0 || (c == 0 && !wb.strict))
	}
	if !s.hi.set() {
		return false
	}
	c, ok := s.hi.v.Compare(wb.v)
	if !ok {
		return false
	}
	return c < 0 || (c == 0 && (!wb.strict || s.hi.strict))
}

// excludes reports whether s provably rejects value x (no value admitted
// by s is equal to x).
func (s *domain) excludes(x event.Value) bool {
	if s.hasEq() {
		// s pins the value to exactly eq; x is excluded iff it differs.
		return !s.eq.Equal(x)
	}
	if s.lo.set() {
		c, ok := x.Compare(s.lo.v)
		if !ok {
			// Admitted values must be comparable with the bound; x is not.
			return true
		}
		if c < 0 || (c == 0 && s.lo.strict) {
			return true
		}
	}
	if s.hi.set() {
		c, ok := x.Compare(s.hi.v)
		if !ok {
			return true
		}
		if c > 0 || (c == 0 && s.hi.strict) {
			return true
		}
	}
	for _, y := range s.ne {
		if y.Equal(x) {
			return true
		}
	}
	if x.Kind() == event.KindString {
		for _, p := range s.prefixes {
			if !strings.HasPrefix(x.Str(), p) {
				return true
			}
		}
		for _, p := range s.suffixes {
			if !strings.HasSuffix(x.Str(), p) {
				return true
			}
		}
		for _, p := range s.contains {
			if !strings.Contains(x.Str(), p) {
				return true
			}
		}
	} else if len(s.prefixes)+len(s.suffixes)+len(s.contains) > 0 {
		return true // patterns force string kind; x is not a string
	}
	return false
}

// guaranteesPrefix reports whether every value in s starts with p.
func (s *domain) guaranteesPrefix(p string) bool {
	if s.hasEq() {
		return s.eq.Kind() == event.KindString && strings.HasPrefix(s.eq.Str(), p)
	}
	for _, q := range s.prefixes {
		if strings.HasPrefix(q, p) {
			return true
		}
	}
	return false
}

// guaranteesSuffix reports whether every value in s ends with p.
func (s *domain) guaranteesSuffix(p string) bool {
	if s.hasEq() {
		return s.eq.Kind() == event.KindString && strings.HasSuffix(s.eq.Str(), p)
	}
	for _, q := range s.suffixes {
		if strings.HasSuffix(q, p) {
			return true
		}
	}
	return false
}

// guaranteesContains reports whether every value in s contains p.
func (s *domain) guaranteesContains(p string) bool {
	if s.hasEq() {
		return s.eq.Kind() == event.KindString && strings.Contains(s.eq.Str(), p)
	}
	for _, q := range s.contains {
		if strings.Contains(q, p) {
			return true
		}
	}
	for _, q := range s.prefixes {
		if strings.Contains(q, p) {
			return true
		}
	}
	for _, q := range s.suffixes {
		if strings.Contains(q, p) {
			return true
		}
	}
	return false
}

// Satisfiable reports whether the filter is not provably contradictory.
// Unsupported combinations are assumed satisfiable.
func (f *Filter) Satisfiable() bool {
	for i, c := range f.Constraints {
		if !firstOnAttr(f.Constraints, i) {
			continue
		}
		var d domain
		if d.build(f.Constraints, c.Attr); d.contradictory {
			return false
		}
	}
	return true
}
