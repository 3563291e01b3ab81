package filter

import (
	"strings"

	"eventsys/internal/event"
)

// Simplify returns a semantically equivalent filter with redundant
// constraints removed and per-attribute constraints put into canonical
// form:
//
//   - multiple ordering bounds on one attribute collapse to the tightest
//     interval (price < 10 && price < 11 → price < 10);
//   - equality makes every other satisfiable constraint on the attribute
//     redundant;
//   - wildcard/exists constraints are absorbed by any other constraint on
//     the same attribute;
//   - duplicate exclusions and patterns deduplicate;
//   - exclusions already implied by the interval drop out.
//
// Provably unsatisfiable filters return unchanged (they match nothing
// either way, and keeping them intact aids debugging). Attribute order
// follows first appearance; constraint order within an attribute is
// eq, bounds, exclusions, patterns, matching the paper's tuple notation.
func (f *Filter) Simplify() *Filter {
	out := &Filter{Class: f.Class}
	for _, attr := range f.Attrs() {
		var d domain
		if d.build(f.Constraints, attr); d.contradictory || d.unsupported {
			// Leave pathological attribute sets untouched.
			out.Constraints = append(out.Constraints, f.ConstraintsOn(attr)...)
			continue
		}
		out.Constraints = append(out.Constraints, d.constraints(attr)...)
	}
	return out
}

// constraints re-emits a canonical constraint list for the domain.
func (d *domain) constraints(attr string) []Constraint {
	if d.wildcardOnly {
		return []Constraint{Wild(attr)}
	}
	var out []Constraint
	if d.hasEq() {
		out = append(out, Constraint{Attr: attr, Op: OpEq, Operand: d.eq})
		// Exclusions and patterns were validated against eq during
		// canonicalization; they are redundant.
		return out
	}
	if d.lo.set() {
		op := OpGe
		if d.lo.strict {
			op = OpGt
		}
		out = append(out, Constraint{Attr: attr, Op: op, Operand: d.lo.v})
	}
	if d.hi.set() {
		op := OpLe
		if d.hi.strict {
			op = OpLt
		}
		out = append(out, Constraint{Attr: attr, Op: op, Operand: d.hi.v})
	}
	seen := make(map[string]bool)
	for _, x := range d.ne {
		key := x.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		// Drop exclusions outside the interval: the bounds already
		// reject those values.
		if !d.intervalAdmits(x) {
			continue
		}
		out = append(out, Constraint{Attr: attr, Op: OpNe, Operand: x})
	}
	for _, p := range reduceImplied(d.prefixes, strings.HasPrefix) {
		out = append(out, Constraint{Attr: attr, Op: OpPrefix, Operand: event.String(p)})
	}
	for _, p := range reduceImplied(d.suffixes, strings.HasSuffix) {
		out = append(out, Constraint{Attr: attr, Op: OpSuffix, Operand: event.String(p)})
	}
	for _, p := range reduceImplied(d.contains, strings.Contains) {
		out = append(out, Constraint{Attr: attr, Op: OpContains, Operand: event.String(p)})
	}
	return out
}

// reduceImplied deduplicates the pattern list and drops patterns implied
// by a stronger one: implies(q, p) means any value satisfying pattern q
// also satisfies p (e.g. prefix "abc" implies prefix "ab").
func reduceImplied(in []string, implies func(q, p string) bool) []string {
	patterns := dedupStrings(in)
	out := patterns[:0:0]
	for i, p := range patterns {
		redundant := false
		for j, q := range patterns {
			if i == j {
				continue
			}
			if implies(q, p) && !(implies(p, q) && j > i) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, p)
		}
	}
	return out
}

// intervalAdmits reports whether the interval part of the domain admits
// v (ignoring exclusions and patterns).
func (d *domain) intervalAdmits(v event.Value) bool {
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
	return true
}

func dedupStrings(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]bool, len(in))
	out := in[:0:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
