package filter

import "eventsys/internal/event"

// Covers implements Definition 2: it reports whether weak covers strong
// (weak ⊒ strong), i.e. every event matched by strong is matched by weak.
//
// The check is conservative (sound for pre-filtering): it may return false
// for filter pairs whose covering cannot be proven from the canonical
// per-attribute domains, but when it returns true the relation holds.
// The trivially-false filter (a contradictory strong filter) is covered by
// everything; the trivially-true filter f_T (zero Filter) covers
// everything.
//
// Callers testing one strong filter against many weak ones build the
// strong side once with NewStrong.
func Covers(weak, strong *Filter, conf Conformance) bool {
	return NewStrong(strong, conf).CoveredBy(weak)
}

// Strong is the strong side of a covering check, prepared once: a scan
// that asks "does any of these stored filters cover f?" derives f's
// satisfiability and per-attribute domains a single time instead of once
// per stored filter.
type Strong struct {
	class string
	conf  Conformance
	unsat bool
	// attrs and doms are f's distinct attributes and their domains,
	// aligned. All are built up front: the satisfiability verdict needs
	// every one of them.
	attrs []string
	doms  []*domain
}

// NewStrong prepares f as the strong side of covering checks under conf
// (nil means exact type names).
func NewStrong(f *Filter, conf Conformance) *Strong {
	if conf == nil {
		conf = ExactTypes{}
	}
	s := &Strong{class: f.Class, conf: conf, attrs: f.Attrs()}
	s.doms = make([]*domain, len(s.attrs))
	for i, attr := range s.attrs {
		s.doms[i] = buildDomain(f.ConstraintsOn(attr))
		s.unsat = s.unsat || s.doms[i].contradictory
	}
	return s
}

// domain returns the strong filter's domain on attr, nil when it places
// no constraint there. Filters hold a handful of attributes; a scan
// beats a map.
func (s *Strong) domain(attr string) *domain {
	for i, a := range s.attrs {
		if a == attr {
			return s.doms[i]
		}
	}
	return nil
}

// CoveredBy reports Covers(weak, f). The mismatches that decide most
// comparisons of a scan — class, an attribute weak constrains and f does
// not, equalities on different values — are settled before any domain of
// weak is built.
func (s *Strong) CoveredBy(weak *Filter) bool {
	// Vacuous case: an unsatisfiable strong filter is covered by all.
	if s.unsat {
		return true
	}
	// Class: weak's class must subsume strong's.
	if weak.Class != "" && weak.Class != RootType {
		if s.class == "" || !s.conf.Conforms(s.class, weak.Class) {
			return false
		}
	}
	for _, c := range weak.Constraints {
		sd := s.domain(c.Attr)
		if sd == nil {
			return false // strong does not even guarantee presence
		}
		// f is satisfiable, so its domain pinned to one value cannot sit
		// inside a weak domain that demands another.
		if c.Op == OpEq && sd.eq != nil && !sd.eq.Equal(c.Operand) {
			return false
		}
	}
	// Each attribute constrained by weak: the strong domain must sit
	// inside the weak domain.
	for _, attr := range weak.Attrs() {
		if !buildDomain(weak.ConstraintsOn(attr)).superset(s.domain(attr)) {
			return false
		}
	}
	return true
}

// CoveredByAny reports whether any filter of weak covers f: the absorb
// and pruning scans of subscription propagation, with f prepared once.
func CoveredByAny(weak []*Filter, f *Filter, conf Conformance) bool {
	if len(weak) == 0 {
		return false
	}
	strong := NewStrong(f, conf)
	for _, g := range weak {
		if strong.CoveredBy(g) {
			return true
		}
	}
	return false
}

// CoversEvent implements Definition 3: event e covers event e' for filter
// f when f(e') implies f(e). Unlike filter covering this is directly
// decidable by evaluation.
func CoversEvent(f *Filter, e, ePrime *event.Event, conf Conformance) bool {
	return !f.Matches(ePrime, conf) || f.Matches(e, conf)
}

// Collapse reduces a set of filters to a minimal antichain under covering:
// any filter covered by another member is dropped (the paper's "collapsing
// subscriptions", Section 3.4: keep g1, drop f1). The result preserves the
// union of matched events. Order of survivors follows the input.
func Collapse(filters []*Filter, conf Conformance) []*Filter {
	keep := make([]bool, len(filters))
	for i := range keep {
		keep[i] = true
	}
	for i, fi := range filters {
		if !keep[i] {
			continue
		}
		for j, fj := range filters {
			if i == j || !keep[j] {
				continue
			}
			// Drop fj if fi covers it. Ties (mutual covering, i.e.
			// equivalent filters) keep the earlier one.
			if Covers(fi, fj, conf) {
				if Covers(fj, fi, conf) && j < i {
					continue
				}
				keep[j] = false
			}
		}
	}
	out := make([]*Filter, 0, len(filters))
	for i, f := range filters {
		if keep[i] {
			out = append(out, f)
		}
	}
	return out
}

// StrongestCovering returns the index of the most specific filter among
// candidates that covers f, or -1 when none covers it. "Most specific"
// means covered by every other covering candidate whenever that relation
// is provable; ties resolve to the first. This is the search performed by
// the subscription placement protocol (Fig. 5): find the strongest stored
// filter covering the new subscription.
func StrongestCovering(candidates []*Filter, f *Filter, conf Conformance) int {
	best := -1
	for i, c := range candidates {
		if !Covers(c, f, conf) {
			continue
		}
		if best == -1 || Covers(candidates[best], c, conf) {
			best = i
		}
	}
	return best
}
