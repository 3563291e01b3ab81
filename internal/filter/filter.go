package filter

import (
	"strconv"
	"strings"

	"eventsys/internal/event"
)

// Conformance decides event type (class) subtyping. typing.Registry
// implements it; ExactTypes is the registry-less fallback.
type Conformance interface {
	// Conforms reports whether sub is super or a subtype of super.
	Conforms(sub, super string) bool
}

// ExactTypes is a Conformance with no hierarchy: a type conforms only to
// itself and to the root type "Event".
type ExactTypes struct{}

// Conforms implements Conformance by exact name comparison.
func (ExactTypes) Conforms(sub, super string) bool {
	return sub == super || super == RootType
}

// RootType mirrors typing.RootType without importing it, keeping this
// package's dependencies limited to the event substrate.
const RootType = "Event"

// Constraint is one name-value-operator tuple of a filter.
type Constraint struct {
	Attr    string
	Op      Op
	Operand event.Value // unused for OpExists/OpAny
}

// Matches evaluates the constraint against an event view (decoded or
// raw): the attribute must be present and the operator must hold.
func (c Constraint) Matches(e event.View) bool {
	v, ok := e.Lookup(c.Attr)
	if !ok {
		return false
	}
	return c.Op.eval(v, c.Operand)
}

// MatchesValue evaluates the constraint's operator against an
// already-looked-up attribute value (presence has been established by the
// caller). Matching engines use it to avoid repeated attribute lookups.
func (c Constraint) MatchesValue(v event.Value) bool { return c.Op.eval(v, c.Operand) }

// IsWildcard reports whether the constraint accepts any present value.
func (c Constraint) IsWildcard() bool { return c.Op == OpAny || c.Op == OpExists }

// String renders the constraint in the paper's tuple notation.
func (c Constraint) String() string { return string(c.appendTo(nil)) }

func (c Constraint) appendTo(b []byte) []byte {
	b = append(append(b, '('), c.Attr...)
	switch {
	case c.Op == OpAny:
		return append(b, ", ALL, =)"...)
	case !c.Op.NeedsOperand():
		return append(b, ", ∃)"...)
	}
	b = c.Operand.AppendTo(append(b, ", "...))
	return append(append(append(b, ", "...), c.Op.String()...), ')')
}

// Filter is a conjunction of constraints plus an optional class constraint
// with conformance (subtype) semantics. The zero Filter is f_T: it matches
// every event.
type Filter struct {
	// Class restricts matching to events whose type conforms to it.
	// Empty (or RootType) accepts every type.
	Class string
	// Constraints must all hold for the filter to match.
	Constraints []Constraint
}

// New constructs a filter for the given class with the given constraints.
func New(class string, cs ...Constraint) *Filter {
	f := &Filter{Class: class, Constraints: make([]Constraint, len(cs))}
	copy(f.Constraints, cs)
	return f
}

// C is shorthand for building a Constraint.
func C(attr string, op Op, operand event.Value) Constraint {
	return Constraint{Attr: attr, Op: op, Operand: operand}
}

// Wild builds the wildcard constraint (attr, ALL, =).
func Wild(attr string) Constraint { return Constraint{Attr: attr, Op: OpAny} }

// Matches implements Definition 1: it reports whether the event satisfies
// the class constraint (under conf) and every attribute constraint. It
// accepts any event view — the decoded *event.Event or the zero-copy
// *event.Raw wire form — so brokers evaluate filters directly over wire
// bytes without materializing events.
func (f *Filter) Matches(e event.View, conf Conformance) bool {
	if f == nil {
		return true
	}
	if f.Class != "" && f.Class != RootType {
		if conf == nil {
			conf = ExactTypes{}
		}
		if !conf.Conforms(e.Class(), f.Class) {
			return false
		}
	}
	for _, c := range f.Constraints {
		if !c.Matches(e) {
			return false
		}
	}
	return true
}

// ConstraintsOn returns the constraints expressed on the named attribute.
func (f *Filter) ConstraintsOn(attr string) []Constraint {
	var out []Constraint
	for _, c := range f.Constraints {
		if c.Attr == attr {
			out = append(out, c)
		}
	}
	return out
}

// Attrs returns the distinct constrained attribute names in first-seen
// order (excluding the class).
func (f *Filter) Attrs() []string {
	seen := make(map[string]bool, len(f.Constraints))
	var out []string
	for _, c := range f.Constraints {
		if !seen[c.Attr] {
			seen[c.Attr] = true
			out = append(out, c.Attr)
		}
	}
	return out
}

// WildcardAttrs returns the attributes constrained only by wildcards, in
// first-seen order. These are the set C of HANDLE-WILDCARD-SUBS (§4.5).
func (f *Filter) WildcardAttrs() []string {
	wild := make(map[string]bool)
	var order []string
	for _, c := range f.Constraints {
		if _, seen := wild[c.Attr]; !seen {
			wild[c.Attr] = true
			order = append(order, c.Attr)
		}
		if !c.IsWildcard() {
			wild[c.Attr] = false
		}
	}
	var out []string
	for _, a := range order {
		if wild[a] {
			out = append(out, a)
		}
	}
	return out
}

// HasWildcards reports whether the filter contains any wildcard-only
// attribute.
func (f *Filter) HasWildcards() bool { return len(f.WildcardAttrs()) > 0 }

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	c := &Filter{Class: f.Class, Constraints: make([]Constraint, len(f.Constraints))}
	copy(c.Constraints, f.Constraints)
	return c
}

// Equal reports structural equality (same class, same constraints in the
// same order).
func (f *Filter) Equal(o *Filter) bool {
	if f.Class != o.Class || len(f.Constraints) != len(o.Constraints) {
		return false
	}
	for i, c := range f.Constraints {
		oc := o.Constraints[i]
		if c.Attr != oc.Attr || c.Op != oc.Op {
			return false
		}
		if c.Op.NeedsOperand() && !(c.Operand.Equal(oc.Operand) && c.Operand.Kind() == oc.Operand.Kind()) {
			return false
		}
	}
	return true
}

// Key returns a canonical string identity for the filter, usable as a map
// key for deduplication in routing tables.
func (f *Filter) Key() string { return f.String() }

// String renders the filter in the paper's notation, e.g.
// (class, "Stock", =) (symbol, "Foo", =) (price, 5, >). The text is
// assembled in a stack buffer and copied out once, so the string a
// routing table keeps as a key carries no growth slack.
func (f *Filter) String() string {
	if f.Class == "" && len(f.Constraints) == 0 {
		return "(f_T)"
	}
	var buf [256]byte
	b := buf[:0]
	if f.Class != "" {
		b = append(b, "("+event.TypeAttr+", "...)
		b = append(strconv.AppendQuote(b, f.Class), ", =)"...)
	}
	for i, c := range f.Constraints {
		if i > 0 || f.Class != "" {
			b = append(b, ' ')
		}
		b = c.appendTo(b)
	}
	return string(b)
}

// Subscription is a disjunction of filters: it matches when at least one
// filter matches. A subscriber's registered interest is a Subscription.
type Subscription []*Filter

// Matches reports whether any filter of the subscription matches.
func (s Subscription) Matches(e event.View, conf Conformance) bool {
	for _, f := range s {
		if f.Matches(e, conf) {
			return true
		}
	}
	return false
}

// String joins the member filters with "||".
func (s Subscription) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, " || ")
}
