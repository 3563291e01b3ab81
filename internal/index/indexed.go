package index

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// IndexedTable is the predicate-indexed counting engine (KindIndexed): it
// keeps the classic counting scheme — each filter occupies a slot with a
// satisfied-constraint counter, stamped scratch state, and tombstoned
// removal — but replaces per-attribute linear scan lists with real
// per-operator index structures, so matching cost tracks the
// number of *satisfied* constraints for every predicate class the filter
// language offers, not just equality:
//
//   - OpEq: hash postings keyed by the normalized operand value (the
//     numeric family collapses to one key, so price = 5 matches both
//     Int(5) and Float(5) exactly like direct evaluation).
//   - OpLt/OpLe/OpGt/OpGe with numeric operands: per-operator sorted
//     threshold arrays. The constraints a numeric event value satisfies
//     form a binary-searchable prefix (Gt/Ge: thresholds below the
//     value) or suffix (Lt/Le: thresholds above it) of the sorted
//     operand array, so unsatisfied ordering constraints cost nothing.
//   - OpPrefix/OpSuffix: per-operand-length hash postings. A string of
//     length L has at most L+1 distinct prefixes, so the satisfied
//     prefix constraints are found with one O(1) lookup per operand
//     length present in the index (and symmetrically for suffixes),
//     without materializing any substring.
//   - OpExists/OpAny (the standard-form wildcard of Section 4.4): in a
//     filter that also holds a selective constraint, presence is not
//     counted at all — the attributes are set aside at Insert and
//     verified with one Lookup each, only for slots that reach the hit
//     list. A filter made only of presence constraints has nothing
//     selective to gate on and keeps a per-attribute presence list,
//     bumped once for any present value, so exists(sparse) still costs
//     nothing for events without the attribute.
//   - OpContains, OpNe, and exotic residue (ordering over strings or
//     booleans, non-finite thresholds, mistyped pattern operands) stay
//     in a per-attribute scan list, which the indexed structures keep
//     small.
//
// Insert decides once, in classify, how a filter is indexed, and records
// the plan in the slot; removal, the purge and Shape read it back. A
// filter that is — as given, or once its presence constraints are set
// aside — one access predicate (eq, prefix, suffix, presence) plus one
// numeric threshold is paired: its single threshold entry sits behind
// the access posting and is consulted only when the access predicate
// hits. So the alarm shape metric = X && value >= T costs the same
// whether the subscriber wrote it bare or a broker standardized it
// against a four-attribute advertisement. Everything else is counted
// constraint by constraint (general), except filters without
// constraints (class-only, candidates for every event) and filters
// beyond the packed counting range (oversize, evaluated directly).
//
// Subscription churn is absorbed by a mutable delta buffer over the
// immutable sorted threshold cores: Insert appends to the delta (scanned
// linearly during Match while it is small) and merges it into the core
// when it crosses a fraction of the core size; Remove tombstones the
// slot and defers purging its threshold entries until enough garbage
// accumulates to amortize a rebuild. A tombstoned slot is recycled only
// after its last threshold entry is purged, so stale core entries can
// never bump a reused slot. Everything else (hash postings, presence and
// scan lists) is cleaned eagerly on removal.
//
// An IndexedTable is not safe for concurrent use: it is owned by one
// goroutine.
type IndexedTable struct {
	conf  filter.Conformance
	slots []indexedSlot
	free  []int
	byKey map[string]int
	// byID is the reverse index id -> occupied slots, making RemoveID
	// (a disconnecting subscriber) O(filters of that id) instead of a
	// full-table walk.
	byID map[string]map[int]struct{}
	// attrs holds the per-attribute predicate indexes.
	attrs map[string]*predIndex
	// classOnly holds slots whose filters have zero attribute
	// constraints; they are candidates for every event.
	classOnly map[int]struct{}
	// oversize holds slots whose filters exceed the packed counting
	// range (more than maxIndexedNeed constraints). Indexing such a
	// filter would bump hundreds of postings per matching event — the
	// same order of work as direct evaluation — so these degenerate
	// filters are evaluated directly.
	oversize map[int]struct{}

	// Match scratch. state packs each slot's round stamp, running count
	// and required count into 4 bytes, so crediting a constraint touches
	// exactly one word — at a million slots the state array dwarfs
	// L1/L2 and the random-access misses ARE the median match cost;
	// every byte shaved keeps more of it cache-resident. hits collects
	// slots whose count crossed need this round, so result collection
	// never walks (or re-misses) the slot table.
	state []slotState
	cur   uint16
	hits  []int

	// memo caches the last paired-attribute Lookup of the current Match
	// round: pair groups overwhelmingly share one partner attribute, so
	// one interface call serves them all.
	memoSet  bool
	memoOk   bool
	memoAttr string
	memoVal  event.Value

	// ordLive / ordDead track threshold entries referencing live and
	// tombstoned slots; their ratio triggers the amortized purge.
	ordLive int
	ordDead int

	// interned canonicalizes pair-partner attribute names so the memo
	// compare in the pairs walk short-circuits on pointer equality
	// instead of loading scattered string bytes.
	interned map[string]string

	// verifySets holds the distinct deferred-presence attribute sets,
	// interned through verifyIdx so a slot refers to its set by a 4-byte
	// index; entry 0 is the empty set. Sets are never dropped: a schema
	// of k attributes yields at most 2^k of them.
	verifySets [][]string
	verifyIdx  map[string]int32

	// plans counts live filters by plan and deferred those whose presence
	// constraints are verified at hit time (see Shape).
	plans    [numPlans]int
	deferred int
}

// slotPlan is classify's decision for one filter.
type slotPlan uint8

const (
	planGeneral   slotPlan = iota // counted constraint by constraint
	planPaired                    // one threshold entry behind an access posting
	planClassOnly                 // no constraints: candidate for every event
	planOversize                  // beyond the packed counting range: evaluated directly
	numPlans
)

// slotState is the per-slot Match scratch: one 4-byte word per slot.
// A filter's satisfied-constraint credits can never exceed its need, so
// uint8 suffices for the counts; filters with more constraints than the
// packed range never enter the counting path (see IndexedTable.oversize).
type slotState struct {
	stamp uint16
	count uint8
	need  uint8
}

// maxIndexedNeed is the largest constraint count the packed counting
// state can track.
const maxIndexedNeed = 1<<8 - 1

type indexedSlot struct {
	f   *filter.Filter
	key string
	ids map[string]struct{}
	// ordRefs counts this slot's entries still present in threshold
	// cores and deltas; a tombstoned slot is recycled only at zero.
	ordRefs int32
	// verify indexes verifySets: the attributes whose presence Match
	// checks once the slot's counted constraints are all satisfied.
	verify int32
	alive  bool
	plan   slotPlan
}

// predIndex holds one attribute's per-operator structures. The eq
// postings are split by operand kind so the hot lookups use the
// specialized string/float64 map paths instead of hashing a whole
// event.Value struct: strings and numerics cover essentially all real
// equality constraints; booleans land in eqMisc.
type predIndex struct {
	eqStr   map[string]*postings
	eqNum   map[float64]*postings // finite numerics; -0 folded onto +0
	eqMisc  map[event.Value]*postings
	ord     [4]ordIndex // OpLt, OpLe, OpGt, OpGe in that order
	prefix  strIndex
	suffix  strIndex
	present postings
	scan    []scanEntry
	// seen stamps the Match round that already considered this
	// attribute: Lookup semantics say the first occurrence of a
	// duplicated attribute name wins, so later occurrences are skipped.
	seen uint16
}

// strIndex holds prefix (or suffix) postings as one map per operand
// length, ascending. A value of length L probes one map per length
// ≤ L — and because hierarchical namespaces put few distinct operands
// at the short lengths, those probes hit small, cache-hot maps instead
// of rescanning the big leaf-level map once per length.
type strIndex struct {
	lens []lenMap
}

// lenMap is one operand length's postings.
type lenMap struct {
	l int
	m map[string]*postings
}

// at returns (creating if asked) the postings map for operand length l.
func (si *strIndex) at(l int, create bool) map[string]*postings {
	i := sort.Search(len(si.lens), func(i int) bool { return si.lens[i].l >= l })
	if i < len(si.lens) && si.lens[i].l == l {
		return si.lens[i].m
	}
	if !create {
		return nil
	}
	si.lens = append(si.lens, lenMap{})
	copy(si.lens[i+1:], si.lens[i:])
	si.lens[i] = lenMap{l: l, m: make(map[string]*postings)}
	return si.lens[i].m
}

// dropLen removes an emptied length map.
func (si *strIndex) dropLen(l int) {
	i := sort.Search(len(si.lens), func(i int) bool { return si.lens[i].l >= l })
	if i < len(si.lens) && si.lens[i].l == l && len(si.lens[i].m) == 0 {
		si.lens = append(si.lens[:i], si.lens[i+1:]...)
	}
}

// slotCount is one posting entry: a slot plus the constraint
// multiplicity it earns per hit. int32 keeps the entry at 8 bytes —
// posting walks are bandwidth-bound at large populations, and 2^31
// slots is far beyond what a single table addresses.
type slotCount struct {
	slot int32
	n    int32
}

// postings is the payload behind one access predicate (one eq value, one
// prefix/suffix operand, or an attribute's presence): the slots bumped
// whenever the predicate is satisfied, plus paired threshold groups that
// bump their slots only when the partner ordering constraint also holds.
// pairs is a value slice: the groups behind a hot access predicate are
// walked on every hit, and embedding them saves a pointer chase (and its
// cache miss) per group.
type postings struct {
	scs   []slotCount
	pairs []pairGroup
}

// empty reports whether nothing hangs off this access predicate.
func (po *postings) empty() bool { return len(po.scs) == 0 && len(po.pairs) == 0 }

// pairGroup holds the paired two-constraint filters sharing one access
// predicate and one residual ordering constraint shape: filters of the
// form (access) && (battr <op> threshold). The thresholds live in the
// same core+delta ordIndex the global ordering indexes use, but are
// consulted only after the access predicate hit — so a subscription
// population dominated by selective-eq/prefix ∧ threshold conjunctions
// (the common alarm shape) costs zero bumps for filters whose access
// predicate the event misses, and zero for un-crossed thresholds too.
//
// The group is kept to 48 bytes: battr is interned (the pairs-walk memo
// compares it by pointer), lo/hi mirror the index's threshold bounds so
// the dominant nothing-crossed case is decided right here, and the
// ordIndex sits behind a pointer chased only when a bound says a
// threshold actually crossed.
type pairGroup struct {
	battr  string
	bop    int8 // ordSlot index: OpLt, OpLe, OpGt, OpGe
	lo, hi float64
	oi     *ordIndex
}

// ordIndex is one (attribute, ordering-operator) threshold index: an
// immutable sorted core plus a small sorted delta buffer absorbing
// churn. Both halves are binary-searchable; the delta folds into the
// core when it fills, so Match cost never degrades with insert volume.
type ordIndex struct {
	// lo/hi bound every threshold in core+delta (conservatively: stale
	// tombstoned extremes persist until a merge; merges recompute them
	// exactly). They lead the struct so the common no-threshold-crossed
	// probe is answered from the pairGroup's first cache line, without
	// touching the entry arrays at all — at large scale each array touch
	// is a cache miss, and most probes cross nothing.
	lo, hi float64
	core   ordCore
	delta  []ordEntry // sorted by threshold, capped at ordDeltaCap
}

// noteBound widens the bounds for a threshold about to be inserted.
func (oi *ordIndex) noteBound(v float64) {
	if oi.core.size()+len(oi.delta) == 0 {
		oi.lo, oi.hi = v, v
		return
	}
	if v < oi.lo {
		oi.lo = v
	}
	if v > oi.hi {
		oi.hi = v
	}
}

// ordCore stores the merged threshold entries grouped by distinct
// threshold: cuts holds the sorted unique thresholds, entries the
// postings ordered by threshold, and starts[i] the offset of cut i's
// group (starts has len(cuts)+1 entries). Real populations repeat
// operands heavily (alarm levels, price points), so cuts is usually
// orders of magnitude smaller than entries — the binary search touches
// a few hot cache lines instead of log2(entries) cold ones, and the
// satisfied range is one contiguous entries slice.
type ordCore struct {
	cuts    []float64
	starts  []int32
	entries []slotCount
}

// size reports the number of threshold entries in the core.
func (c *ordCore) size() int { return len(c.entries) }

// rangeGE returns the entries whose threshold is >= v.
func (c *ordCore) rangeGE(v float64) []slotCount {
	if len(c.entries) == 0 {
		return nil
	}
	i := sort.SearchFloat64s(c.cuts, v)
	return c.entries[c.starts[i]:]
}

// rangeGT returns the entries whose threshold is > v.
func (c *ordCore) rangeGT(v float64) []slotCount {
	if len(c.entries) == 0 {
		return nil
	}
	i := searchFloatGT(c.cuts, v)
	return c.entries[c.starts[i]:]
}

// rangeLE returns the entries whose threshold is <= v.
func (c *ordCore) rangeLE(v float64) []slotCount {
	if len(c.entries) == 0 {
		return nil
	}
	i := searchFloatGT(c.cuts, v)
	return c.entries[:c.starts[i]]
}

// rangeLT returns the entries whose threshold is < v.
func (c *ordCore) rangeLT(v float64) []slotCount {
	if len(c.entries) == 0 {
		return nil
	}
	i := sort.SearchFloat64s(c.cuts, v)
	return c.entries[:c.starts[i]]
}

// searchFloatGT returns the first index with cuts[i] > v.
func searchFloatGT(cuts []float64, v float64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > v })
}

// ordDeltaCap bounds the delta buffer. Inserting into the sorted delta
// shifts at most this many entries, and merging it into the core every
// ordDeltaCap inserts amortizes the rebuild to O(core/ordDeltaCap)
// entries moved per insert.
const ordDeltaCap = 512

// insertSorted places e into its sorted position.
func insertSorted(arr []ordEntry, e ordEntry) []ordEntry {
	i := sort.Search(len(arr), func(i int) bool { return arr[i].t > e.t })
	arr = append(arr, ordEntry{})
	copy(arr[i+1:], arr[i:])
	arr[i] = e
	return arr
}

type ordEntry struct {
	t    float64
	slot int32
	n    int32
}

type scanEntry struct {
	c    filter.Constraint
	slot int
	n    int
}

var _ Engine = (*IndexedTable)(nil)

// ordSlot maps an ordering operator to its ordIndex position, or -1.
func ordSlot(op filter.Op) int {
	switch op {
	case filter.OpLt:
		return 0
	case filter.OpLe:
		return 1
	case filter.OpGt:
		return 2
	case filter.OpGe:
		return 3
	default:
		return -1
	}
}

// NewIndexedTable returns an empty predicate-indexed table using conf
// for class conformance (nil means exact type matching).
func NewIndexedTable(conf filter.Conformance) *IndexedTable {
	return &IndexedTable{
		conf:      conf,
		byKey:     make(map[string]int),
		byID:      make(map[string]map[int]struct{}),
		attrs:     make(map[string]*predIndex),
		classOnly: make(map[int]struct{}),
		oversize:  make(map[int]struct{}),
		interned:  make(map[string]string),

		verifySets: [][]string{nil},
		verifyIdx:  make(map[string]int32),
	}
}

// intern returns the canonical copy of s.
func (t *IndexedTable) intern(s string) string {
	if v, ok := t.interned[s]; ok {
		return v
	}
	t.interned[s] = s
	return s
}

func (t *IndexedTable) attrIndexFor(name string) *predIndex {
	p, ok := t.attrs[name]
	if !ok {
		p = &predIndex{
			eqStr:  make(map[string]*postings),
			eqNum:  make(map[float64]*postings),
			eqMisc: make(map[event.Value]*postings),
		}
		t.attrs[name] = p
	}
	return p
}

// eqPostings returns (creating if asked) the postings behind one eq
// operand value, routed to the kind-specialized map. Callers guarantee
// the operand is hashable (hashableEq): numerics are finite.
func (p *predIndex) eqPostings(k event.Value, create bool) *postings {
	var po *postings
	switch {
	case k.Kind() == event.KindString:
		po = p.eqStr[k.Str()]
		if po == nil && create {
			po = &postings{}
			p.eqStr[k.Str()] = po
		}
	case k.IsNumeric():
		f := k.Num()
		if f == 0 {
			f = 0 // collapse -0 onto +0; they compare equal
		}
		po = p.eqNum[f]
		if po == nil && create {
			po = &postings{}
			p.eqNum[f] = po
		}
	default:
		po = p.eqMisc[k]
		if po == nil && create {
			po = &postings{}
			p.eqMisc[k] = po
		}
	}
	return po
}

// dropEqPostings removes an emptied eq operand entry.
func (p *predIndex) dropEqPostings(k event.Value) {
	switch {
	case k.Kind() == event.KindString:
		delete(p.eqStr, k.Str())
	case k.IsNumeric():
		f := k.Num()
		if f == 0 {
			f = 0
		}
		delete(p.eqNum, f)
	default:
		delete(p.eqMisc, k)
	}
}

// strPostings returns (creating if asked) the postings behind one
// prefix/suffix operand.
func strPostings(si *strIndex, op string, create bool) *postings {
	m := si.at(len(op), create)
	if m == nil {
		return nil
	}
	po := m[op]
	if po == nil && create {
		po = &postings{}
		m[op] = po
	}
	return po
}

// dropStrPostings removes an emptied operand entry and, when it was the
// last of its length, the length map.
func dropStrPostings(si *strIndex, op string) {
	if m := si.at(len(op), false); m != nil {
		delete(m, op)
		if len(m) == 0 {
			si.dropLen(len(op))
		}
	}
}

// indexable classifies a constraint: true selects a dedicated structure,
// false the scan residue.
func indexable(c filter.Constraint) bool {
	switch c.Op {
	case filter.OpExists, filter.OpAny:
		return true
	case filter.OpEq:
		// A NaN operand equals nothing (Compare: incomparable), but a
		// NaN hash key would wrongly match NaN event values; scan it.
		return !(c.Operand.IsNumeric() && math.IsNaN(c.Operand.Num()))
	case filter.OpLt, filter.OpLe, filter.OpGt, filter.OpGe:
		// Only finite numeric thresholds sort; string/bool ordering and
		// NaN operands keep their exact Compare semantics in the scan
		// list.
		return c.Operand.IsNumeric() && !math.IsNaN(c.Operand.Num())
	case filter.OpPrefix, filter.OpSuffix:
		return c.Operand.Kind() == event.KindString
	default:
		return false
	}
}

// Insert implements Engine.
func (t *IndexedTable) Insert(f *filter.Filter, id string) {
	key := f.Key()
	if slot, ok := t.byKey[key]; ok {
		t.slots[slot].ids[id] = struct{}{}
		t.linkID(id, slot)
		return
	}
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = len(t.slots)
		t.slots = append(t.slots, indexedSlot{})
		t.state = append(t.state, slotState{})
	}
	plan, groups, deferred := classify(f)
	t.slots[slot] = indexedSlot{
		f:      f.Clone(),
		key:    key,
		ids:    map[string]struct{}{id: {}},
		verify: t.verifySet(deferred),
		alive:  true,
		plan:   plan,
	}
	t.byKey[key] = slot
	t.linkID(id, slot)
	t.plans[plan]++
	if len(deferred) > 0 {
		t.deferred++
	}
	need := 0
	for _, g := range groups {
		need += g.n
	}
	// Class-only and oversize filters index nothing (groups is empty) and
	// keep need 0, which no bump can cross.
	t.state[slot] = slotState{need: uint8(need)}
	switch plan {
	case planClassOnly:
		t.classOnly[slot] = struct{}{}
	case planOversize:
		t.oversize[slot] = struct{}{}
	case planPaired:
		t.insertPair(slot, groups[0], groups[1])
	case planGeneral:
		for _, g := range groups {
			p := t.attrIndexFor(g.c.Attr)
			switch c := g.c; {
			case access(c):
				po := p.accessPostings(c, true)
				po.scs = append(po.scs, slotCount{slot: int32(slot), n: int32(g.n)})
			case indexable(c): // a finite numeric threshold
				t.addThreshold(&p.ord[ordSlot(c.Op)], slot, c.Operand.Num(), g.n)
			default:
				p.scan = append(p.scan, scanEntry{c: c, slot: slot, n: g.n})
			}
		}
	}
}

// classify is the one indexing decision: the plan, the constraint groups
// to index under it (duplicates aggregated so a posting carries its
// multiplicity in one entry; for planPaired exactly the access group then
// the threshold group) and the attributes whose presence is left to
// hit-time verification.
//
// A filter that is a pair as given is indexed as such, presence access
// included. Otherwise its presence constraints are set aside, provided a
// selective constraint remains to gate the verification, and the
// remainder is classified. Without one the presence constraints are all
// the filter has and stay counted: deferring them would make the filter
// a candidate for every event.
func classify(f *filter.Filter) (plan slotPlan, groups []constraintGroup, deferred []string) {
	switch n := len(f.Constraints); {
	case n == 0:
		return planClassOnly, nil, nil
	case n > maxIndexedNeed:
		return planOversize, nil, nil
	}
	groups = aggregateConstraints(f.Constraints)
	acc, res, ok := classifyPair(groups)
	if !ok {
		// rest reuses groups' array: it overwrites only entries already
		// read, and when nothing survives nothing was written, so groups
		// is intact for the presence-only return.
		rest := groups[:0]
		for _, g := range groups {
			if g.c.IsWildcard() {
				deferred = append(deferred, g.c.Attr)
			} else {
				rest = append(rest, g)
			}
		}
		if len(rest) == 0 {
			return planGeneral, groups, nil
		}
		groups = rest
		acc, res, ok = classifyPair(groups)
	}
	if ok {
		groups[0], groups[1] = acc, res
		return planPaired, groups, deferred
	}
	return planGeneral, groups, deferred
}

// verifySet interns a deferred-presence attribute set, returning its
// verifySets index (0 for the empty set).
func (t *IndexedTable) verifySet(attrs []string) int32 {
	if len(attrs) == 0 {
		return 0
	}
	sort.Strings(attrs)
	attrs = slices.Compact(attrs)
	key := fmt.Sprintf("%q", attrs) // quoted: names cannot run together
	i, ok := t.verifyIdx[key]
	if !ok {
		i = int32(len(t.verifySets))
		t.verifySets = append(t.verifySets, attrs)
		t.verifyIdx[key] = i
	}
	return i
}

// access reports whether c can serve as an access predicate: a hash-,
// pattern- or presence-indexed constraint with postings of its own,
// which can also gate consulting a paired partner threshold.
func access(c filter.Constraint) bool { return indexable(c) && ordSlot(c.Op) < 0 }

// accessPostings returns (creating if asked) the postings behind an
// access predicate.
func (p *predIndex) accessPostings(c filter.Constraint, create bool) *postings {
	switch c.Op {
	case filter.OpEq:
		return p.eqPostings(c.Operand, create)
	case filter.OpPrefix:
		return strPostings(&p.prefix, c.Operand.Str(), create)
	case filter.OpSuffix:
		return strPostings(&p.suffix, c.Operand.Str(), create)
	default: // OpExists, OpAny
		return &p.present
	}
}

// dropAccessPostings removes an emptied access predicate's entry.
func (p *predIndex) dropAccessPostings(c filter.Constraint) {
	switch c.Op {
	case filter.OpEq:
		p.dropEqPostings(c.Operand)
	case filter.OpPrefix:
		dropStrPostings(&p.prefix, c.Operand.Str())
	case filter.OpSuffix:
		dropStrPostings(&p.suffix, c.Operand.Str())
	}
}

// classifyPair detects the paired two-constraint conjunction shape — one
// access predicate plus one indexable ordering constraint — which
// dominates realistic alarm populations. Paired filters bypass the
// global per-operator structures entirely: their threshold lives behind
// the access posting, so events that miss the access predicate (the
// overwhelming majority, for selective predicates) never touch the
// filter's slot at all.
func classifyPair(groups []constraintGroup) (acc, res constraintGroup, ok bool) {
	if len(groups) != 2 {
		return acc, res, false
	}
	for i := 0; i < 2; i++ {
		a, r := groups[i], groups[1-i]
		if access(a.c) && ordSlot(r.c.Op) >= 0 && indexable(r.c) {
			return a, r, true
		}
	}
	return acc, res, false
}

// addThreshold enters one threshold entry for slot into a global or
// paired ordering index.
func (t *IndexedTable) addThreshold(oi *ordIndex, slot int, th float64, n int) {
	oi.noteBound(th)
	oi.delta = insertSorted(oi.delta, ordEntry{t: th, slot: int32(slot), n: int32(n)})
	t.slots[slot].ordRefs++
	t.ordLive++
	if len(oi.delta) >= ordDeltaCap {
		t.mergeOrd(oi)
	}
}

// insertPair indexes a paired filter: one threshold entry under the
// access predicate's pair group, crediting the filter's full need when
// both halves hold.
func (t *IndexedTable) insertPair(slot int, acc, res constraintGroup) {
	po := t.attrIndexFor(acc.c.Attr).accessPostings(acc.c, true)
	bop := int8(ordSlot(res.c.Op))
	gi := -1
	for i := range po.pairs {
		if po.pairs[i].battr == res.c.Attr && po.pairs[i].bop == bop {
			gi = i
			break
		}
	}
	if gi < 0 {
		po.pairs = append(po.pairs, pairGroup{battr: t.intern(res.c.Attr), bop: bop, oi: &ordIndex{}})
		gi = len(po.pairs) - 1
	}
	g := &po.pairs[gi]
	t.addThreshold(g.oi, slot, res.c.Operand.Num(), acc.n+res.n)
	g.lo, g.hi = g.oi.lo, g.oi.hi
}

type constraintGroup struct {
	c filter.Constraint
	n int
}

// aggregateConstraints groups a filter's constraints by (attr, op,
// operand identity), summing multiplicities. Filters are small, so the
// quadratic dedup is cheaper than hashing.
func aggregateConstraints(cs []filter.Constraint) []constraintGroup {
	groups := make([]constraintGroup, 0, len(cs))
outer:
	for _, c := range cs {
		for i := range groups {
			g := &groups[i]
			if g.c.Attr == c.Attr && g.c.Op == c.Op &&
				(!c.Op.NeedsOperand() || (g.c.Operand.Kind() == c.Operand.Kind() && g.c.Operand.Equal(c.Operand))) {
				g.n++
				continue outer
			}
		}
		groups = append(groups, constraintGroup{c: c, n: 1})
	}
	return groups
}

// linkID records id -> slot in the reverse index.
func (t *IndexedTable) linkID(id string, slot int) {
	set, ok := t.byID[id]
	if !ok {
		set = make(map[int]struct{})
		t.byID[id] = set
	}
	set[slot] = struct{}{}
}

// unlinkID removes id -> slot from the reverse index.
func (t *IndexedTable) unlinkID(id string, slot int) {
	if set, ok := t.byID[id]; ok {
		delete(set, slot)
		if len(set) == 0 {
			delete(t.byID, id)
		}
	}
}

// Remove implements Engine.
func (t *IndexedTable) Remove(f *filter.Filter, id string) {
	slot, ok := t.byKey[f.Key()]
	if !ok {
		return
	}
	s := &t.slots[slot]
	if _, ok := s.ids[id]; !ok {
		return
	}
	delete(s.ids, id)
	t.unlinkID(id, slot)
	if len(s.ids) == 0 {
		t.dropSlot(slot)
	}
}

// RemoveID implements Engine in O(filters held by id) via the reverse
// index.
func (t *IndexedTable) RemoveID(id string) {
	set := t.byID[id]
	if len(set) == 0 {
		delete(t.byID, id)
		return
	}
	delete(t.byID, id)
	for slot := range set {
		s := &t.slots[slot]
		delete(s.ids, id)
		if len(s.ids) == 0 {
			t.dropSlot(slot)
		}
	}
}

// dropSlot tombstones a slot, undoing what Insert did under the slot's
// recorded plan: hash postings, presence and scan lists are cleaned
// eagerly; threshold entries (global or paired) are accounted as garbage
// for the amortized purge, and the slot is recycled once none remain.
func (t *IndexedTable) dropSlot(slot int) {
	s := &t.slots[slot]
	s.alive = false
	delete(t.byKey, s.key)
	t.plans[s.plan]--
	if s.verify != 0 {
		t.deferred--
	}
	switch s.plan {
	case planClassOnly:
		delete(t.classOnly, slot)
	case planOversize:
		delete(t.oversize, slot)
	case planGeneral:
		// Duplicate constraints share one entry; dropping it twice is a
		// no-op, so the raw constraint list serves.
		for _, c := range s.f.Constraints {
			p := t.attrs[c.Attr]
			switch {
			case p == nil || (s.verify != 0 && c.IsWildcard()): // nothing indexed
			case access(c):
				if po := p.accessPostings(c, false); po != nil {
					po.scs = dropSlotCount(po.scs, slot)
					if po.empty() {
						p.dropAccessPostings(c)
					}
				}
			case indexable(c): // a threshold: deferred garbage, below
			default:
				for i := 0; i < len(p.scan); i++ {
					if p.scan[i].slot == slot {
						p.scan[i] = p.scan[len(p.scan)-1]
						p.scan = p.scan[:len(p.scan)-1]
						i--
					}
				}
			}
		}
	}
	t.ordLive -= int(s.ordRefs)
	t.ordDead += int(s.ordRefs)
	if s.ordRefs == 0 {
		t.recycle(slot)
	} else if t.ordDead >= 64 && t.ordDead*4 >= t.ordLive {
		t.purgeOrd()
	}
}

// recycle returns a fully-unreferenced tombstoned slot to the free list.
func (t *IndexedTable) recycle(slot int) {
	t.slots[slot] = indexedSlot{}
	t.free = append(t.free, slot)
}

// mergeOrd folds an index's delta buffer into its grouped core (both
// halves are already sorted, so this is a linear merge), dropping
// entries of tombstoned slots on the way and regrouping the survivors
// by distinct threshold.
func (t *IndexedTable) mergeOrd(oi *ordIndex) {
	old := oi.core
	core := ordCore{
		cuts:    make([]float64, 0, len(old.cuts)+len(oi.delta)),
		starts:  make([]int32, 1, len(old.cuts)+len(oi.delta)+1),
		entries: make([]slotCount, 0, old.size()+len(oi.delta)),
	}
	appendLive := func(th float64, sc slotCount) {
		if !t.slots[sc.slot].alive {
			t.releaseOrdRef(int(sc.slot))
			return
		}
		if n := len(core.cuts); n == 0 || core.cuts[n-1] != th {
			core.cuts = append(core.cuts, th)
			core.starts = append(core.starts, 0)
		}
		core.entries = append(core.entries, sc)
		core.starts[len(core.starts)-1] = int32(len(core.entries))
	}
	ci, ei, di := 0, 0, 0 // old cut, old entry, delta indexes
	for ei < len(old.entries) && di < len(oi.delta) {
		for int32(ei) >= old.starts[ci+1] {
			ci++
		}
		if d := oi.delta[di]; old.cuts[ci] <= d.t {
			appendLive(old.cuts[ci], old.entries[ei])
			ei++
		} else {
			appendLive(d.t, slotCount{slot: d.slot, n: d.n})
			di++
		}
	}
	for ; ei < len(old.entries); ei++ {
		for int32(ei) >= old.starts[ci+1] {
			ci++
		}
		appendLive(old.cuts[ci], old.entries[ei])
	}
	for ; di < len(oi.delta); di++ {
		d := oi.delta[di]
		appendLive(d.t, slotCount{slot: d.slot, n: d.n})
	}
	oi.core = core
	oi.delta = nil
	// The merge dropped tombstoned extremes: recompute exact bounds.
	if n := len(core.cuts); n > 0 {
		oi.lo, oi.hi = core.cuts[0], core.cuts[n-1]
	} else {
		oi.lo, oi.hi = 0, 0
	}
}

// purgeOrd sweeps every threshold index — global per-operator and
// paired — dropping entries of tombstoned slots and recycling slots
// whose last entry disappears. Access predicates left with neither
// postings nor pairs are removed along the way.
func (t *IndexedTable) purgeOrd() {
	for _, p := range t.attrs {
		for i := range p.ord {
			oi := &p.ord[i]
			if oi.core.size()+len(oi.delta) > 0 {
				t.mergeOrd(oi)
			}
		}
		t.purgePairs(&p.present)
		for k, po := range p.eqStr {
			t.purgePairs(po)
			if po.empty() {
				delete(p.eqStr, k)
			}
		}
		for k, po := range p.eqNum {
			t.purgePairs(po)
			if po.empty() {
				delete(p.eqNum, k)
			}
		}
		for k, po := range p.eqMisc {
			t.purgePairs(po)
			if po.empty() {
				delete(p.eqMisc, k)
			}
		}
		t.purgeStrIndex(&p.prefix)
		t.purgeStrIndex(&p.suffix)
	}
}

// purgeStrIndex purges the pairs behind every prefix/suffix operand,
// dropping emptied operands and length maps.
func (t *IndexedTable) purgeStrIndex(si *strIndex) {
	kept := si.lens[:0]
	for _, lm := range si.lens {
		for op, po := range lm.m {
			t.purgePairs(po)
			if po.empty() {
				delete(lm.m, op)
			}
		}
		if len(lm.m) > 0 {
			kept = append(kept, lm)
		}
	}
	si.lens = kept
}

// purgePairs merges every paired threshold group behind one access
// predicate and discards groups that end up empty.
func (t *IndexedTable) purgePairs(po *postings) {
	if len(po.pairs) == 0 {
		return
	}
	kept := po.pairs[:0]
	for i := range po.pairs {
		g := &po.pairs[i]
		if g.oi.core.size()+len(g.oi.delta) > 0 {
			t.mergeOrd(g.oi)
		}
		if g.oi.core.size()+len(g.oi.delta) > 0 {
			// The merge recomputed the index's exact bounds; refresh the
			// mirrored copies the pairs walk reads.
			g.lo, g.hi = g.oi.lo, g.oi.hi
			kept = append(kept, *g)
		}
	}
	if len(kept) == 0 {
		po.pairs = nil
	} else {
		po.pairs = kept
	}
}

// releaseOrdRef drops one threshold-entry reference of a tombstoned
// slot, recycling the slot when the last reference disappears.
func (t *IndexedTable) releaseOrdRef(slot int) {
	t.ordDead--
	s := &t.slots[slot]
	if s.ordRefs--; s.ordRefs == 0 {
		t.recycle(slot)
	}
}

// dropSlotCount removes a slot's entry from a posting list in place.
func dropSlotCount(scs []slotCount, slot int) []slotCount {
	for i := range scs {
		if scs[i].slot == int32(slot) {
			scs[i] = scs[len(scs)-1]
			return scs[:len(scs)-1]
		}
	}
	return scs
}

// bump credits n satisfied constraints to a slot. All per-slot scratch
// lives in one 4-byte slotState, so a bump costs a single (usually
// cache-missing) memory touch; the moment the count crosses the filter's
// need the slot is recorded as a hit, so no second pass over touched
// slots is necessary.
func (t *IndexedTable) bump(slot, n int) {
	st := &t.state[slot]
	if st.stamp != t.cur {
		st.stamp = t.cur
		st.count = 0
	}
	prev := st.count
	st.count += uint8(n)
	if st.need > 0 && st.count >= st.need && prev < st.need {
		t.hits = append(t.hits, slot)
	}
}

func (t *IndexedTable) bumpAll(scs []slotCount) {
	for _, sc := range scs {
		t.bump(int(sc.slot), int(sc.n))
	}
}

// bumpDeltaAbove credits delta entries whose threshold is above v
// (strictly, or inclusively with incl), walking back from the top of
// the sorted buffer: the walk costs O(satisfied entries + 1), never
// O(buffer), because it stops at the first unsatisfied threshold.
func (t *IndexedTable) bumpDeltaAbove(arr []ordEntry, v float64, incl bool) {
	for i := len(arr) - 1; i >= 0; i-- {
		if e := &arr[i]; e.t > v || (incl && e.t == v) {
			t.bump(int(e.slot), int(e.n))
		} else {
			return
		}
	}
}

// bumpDeltaBelow is the mirror walk from the bottom of the buffer.
func (t *IndexedTable) bumpDeltaBelow(arr []ordEntry, v float64, incl bool) {
	for i := range arr {
		if e := &arr[i]; e.t < v || (incl && e.t == v) {
			t.bump(int(e.slot), int(e.n))
		} else {
			return
		}
	}
}

// bumpOrdOp credits one ordering operator's satisfied thresholds in one
// core+delta index: a binary-searched prefix or suffix of the grouped
// core plus the sorted delta, so unsatisfied thresholds are never
// visited. The core search runs over the distinct-threshold array,
// which real populations keep tiny (operands repeat), so it stays
// within a few hot cache lines even when the entries number in the
// millions.
// The lo/hi pre-checks reject the (dominant) case where no threshold is
// crossed without touching the entry arrays — for a paired alarm group
// that turns the whole probe into two inline float compares.
func (t *IndexedTable) bumpOrdOp(oi *ordIndex, bop int8, v float64) {
	switch bop {
	case 0: // OpLt: v < threshold — the strict suffix of each sorted half.
		if oi.hi <= v {
			return
		}
		t.bumpAll(oi.core.rangeGT(v))
		t.bumpDeltaAbove(oi.delta, v, false)
	case 1: // OpLe: v <= threshold — suffix.
		if oi.hi < v {
			return
		}
		t.bumpAll(oi.core.rangeGE(v))
		t.bumpDeltaAbove(oi.delta, v, true)
	case 2: // OpGt: v > threshold — strict prefix.
		if oi.lo >= v {
			return
		}
		t.bumpAll(oi.core.rangeLT(v))
		t.bumpDeltaBelow(oi.delta, v, false)
	case 3: // OpGe: v >= threshold — prefix.
		if oi.lo > v {
			return
		}
		t.bumpAll(oi.core.rangeLE(v))
		t.bumpDeltaBelow(oi.delta, v, true)
	}
}

// matchOrd credits the global (unpaired) ordering constraints a numeric
// value satisfies.
func (t *IndexedTable) matchOrd(p *predIndex, v float64) {
	if math.IsNaN(v) {
		// NaN is incomparable: no ordering constraint is satisfied.
		return
	}
	for i := range p.ord {
		if oi := &p.ord[i]; oi.core.size()+len(oi.delta) > 0 {
			t.bumpOrdOp(oi, int8(i), v)
		}
	}
}

// bumpPostings credits an access-predicate hit: the unconditional
// postings, plus any paired threshold group whose partner ordering
// constraint the event also satisfies. Consecutive groups usually share
// one partner attribute, so its Lookup is memoized for the round.
func (t *IndexedTable) bumpPostings(e event.View, po *postings) {
	t.bumpAll(po.scs)
	for i := range po.pairs {
		g := &po.pairs[i]
		if !t.memoSet || t.memoAttr != g.battr {
			t.memoVal, t.memoOk = e.Lookup(g.battr)
			t.memoAttr, t.memoSet = g.battr, true
		}
		if !t.memoOk || !t.memoVal.IsNumeric() {
			continue
		}
		v := t.memoVal.Num()
		if math.IsNaN(v) {
			continue
		}
		// Mirrored bounds decide the dominant nothing-crossed case from
		// the group itself, without chasing the ordIndex pointer.
		switch g.bop {
		case 0:
			if g.hi <= v {
				continue
			}
		case 1:
			if g.hi < v {
				continue
			}
		case 2:
			if g.lo >= v {
				continue
			}
		case 3:
			if g.lo > v {
				continue
			}
		}
		t.bumpOrdOp(g.oi, g.bop, v)
	}
}

// consider credits every constraint on one attribute that the value
// satisfies.
func (t *IndexedTable) consider(e event.View, v event.Value, p *predIndex) {
	switch {
	case v.Kind() == event.KindString:
		if len(p.eqStr) > 0 {
			if po := p.eqStr[v.Str()]; po != nil {
				t.bumpPostings(e, po)
			}
		}
	case v.IsNumeric():
		if len(p.eqNum) > 0 {
			f := v.Num()
			if f == 0 {
				f = 0 // collapse -0 onto +0; they compare equal
			}
			// A NaN f misses every key here, which is exactly right.
			if po := p.eqNum[f]; po != nil {
				t.bumpPostings(e, po)
			}
		}
	default:
		if len(p.eqMisc) > 0 {
			if po := p.eqMisc[v]; po != nil {
				t.bumpPostings(e, po)
			}
		}
	}
	if !p.present.empty() {
		t.bumpPostings(e, &p.present)
	}
	if v.IsNumeric() {
		t.matchOrd(p, v.Num())
	}
	if v.Kind() == event.KindString {
		s := v.Str()
		for _, lm := range p.prefix.lens {
			if lm.l > len(s) {
				break // ascending: no longer operand can prefix s
			}
			if po := lm.m[s[:lm.l]]; po != nil {
				t.bumpPostings(e, po)
			}
		}
		for _, lm := range p.suffix.lens {
			if lm.l > len(s) {
				break
			}
			if po := lm.m[s[len(s)-lm.l:]]; po != nil {
				t.bumpPostings(e, po)
			}
		}
	}
	for _, se := range p.scan {
		if se.c.MatchesValue(v) {
			t.bump(se.slot, se.n)
		}
	}
}

// Match implements Engine: satisfied constraints are counted through the
// per-operator indexes; slots reaching their needed count are collected
// as they cross it — the full slot table is never walked.
func (t *IndexedTable) Match(e event.View) ([]string, int) {
	t.cur++
	if t.cur == 0 {
		// Stamp wrap (once per 2^16 matches): invalidate all stale stamps.
		// Amortized this is a fraction of a nanosecond per slot per match.
		for i := range t.state {
			t.state[i].stamp = 0
		}
		for _, p := range t.attrs {
			p.seen = 0
		}
		t.cur = 1
	}
	t.hits = t.hits[:0]
	t.memoSet = false
	// The synthetic class attribute can also carry constraints when a
	// filter tests it as a plain string attribute; Lookup resolves it
	// before any explicit attribute of the same name, so it goes first.
	if p, ok := t.attrs[event.TypeAttr]; ok {
		p.seen = t.cur
		t.consider(e, event.String(e.Class()), p)
	}
	for i, n := 0, e.NumAttrs(); i < n; i++ {
		name, v := e.AttrAt(i)
		if p, ok := t.attrs[name]; ok && p.seen != t.cur {
			p.seen = t.cur
			t.consider(e, v, p)
		}
	}
	var ids []string
	matched := 0
	for _, slot := range t.hits {
		ids, matched = t.collect(e, slot, ids, matched)
	}
	for slot := range t.classOnly {
		ids, matched = t.collect(e, slot, ids, matched)
	}
	// Oversize filters (need beyond the packed counting range) are
	// evaluated directly; there are none in realistic populations.
	for slot := range t.oversize {
		s := &t.slots[slot]
		if s.alive && s.f.Matches(e, t.conf) {
			matched++
			for id := range s.ids {
				ids = append(ids, id)
			}
		}
	}
	return dedupSorted(ids), matched
}

// collect appends the subscriber IDs of a slot whose counted constraints
// all held, once what counting left open is settled, and bumps matched.
// (A method, not a closure in Match: a closure over ids and matched costs
// an allocation per event.)
func (t *IndexedTable) collect(e event.View, slot int, ids []string, matched int) ([]string, int) {
	s := &t.slots[slot]
	if !s.alive {
		return ids, matched
	}
	// Deferred presence: the counted constraints all held, so the
	// set-aside attributes decide — resolved by Lookup, exactly as
	// filter.Matches resolves them.
	for _, attr := range t.verifySets[s.verify] {
		if _, ok := e.Lookup(attr); !ok {
			return ids, matched
		}
	}
	if !classOK(s.f, e, t.conf) {
		return ids, matched
	}
	for id := range s.ids {
		ids = append(ids, id)
	}
	return ids, matched + 1
}

// classOK reports whether e's class conforms to f's (the class is not
// counted: it is checked once a slot's constraints all held).
func classOK(f *filter.Filter, e event.View, conf filter.Conformance) bool {
	if f.Class == "" || f.Class == filter.RootType {
		return true
	}
	if conf == nil {
		conf = filter.ExactTypes{}
	}
	return conf.Conforms(e.Class(), f.Class)
}

// Filters implements Engine.
func (t *IndexedTable) Filters() []*filter.Filter {
	out := make([]*filter.Filter, 0, len(t.byKey))
	for _, slot := range t.byKey {
		out = append(out, t.slots[slot].f)
	}
	return out
}

// Len implements Engine.
func (t *IndexedTable) Len() int { return len(t.byKey) }
