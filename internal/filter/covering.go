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
// strong side once with NewStrong, or keep the weak ones in a CoverSet.
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
	// doms holds f's domain on each attribute it constrains, in
	// first-seen order. All are built up front: the satisfiability
	// verdict needs every one of them.
	doms []attrDomain
}

type attrDomain struct {
	attr string
	domain
}

// NewStrong prepares f as the strong side of covering checks under conf
// (nil means exact type names). It walks f's constraints in place and
// allocates only the Strong and its domain slice.
func NewStrong(f *Filter, conf Conformance) *Strong {
	if conf == nil {
		conf = ExactTypes{}
	}
	s := &Strong{class: f.Class, conf: conf, doms: make([]attrDomain, 0, len(f.Constraints))}
	for i, c := range f.Constraints {
		if !firstOnAttr(f.Constraints, i) {
			continue
		}
		s.doms = append(s.doms, attrDomain{attr: c.Attr})
		d := &s.doms[len(s.doms)-1].domain
		d.build(f.Constraints, c.Attr)
		s.unsat = s.unsat || d.contradictory
	}
	return s
}

// domain returns the strong filter's domain on attr, nil when it places
// no constraint there. Filters hold a handful of attributes; a scan
// beats a map.
func (s *Strong) domain(attr string) *domain {
	for i := range s.doms {
		if s.doms[i].attr == attr {
			return &s.doms[i].domain
		}
	}
	return nil
}

// CoveredBy reports Covers(weak, f). The mismatches that decide most
// comparisons of a scan — class, an attribute weak constrains and f does
// not, equalities on different values — are settled before any domain of
// weak is built, and none of them allocates.
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
		if c.Op == OpEq && sd.hasEq() && !sd.eq.Equal(c.Operand) {
			return false
		}
	}
	// Each attribute constrained by weak: the strong domain must sit
	// inside the weak domain.
	for i, c := range weak.Constraints {
		if !firstOnAttr(weak.Constraints, i) {
			continue
		}
		var wd domain
		if wd.build(weak.Constraints, c.Attr); !wd.superset(s.domain(c.Attr)) {
			return false
		}
	}
	return true
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
