package index

import (
	"fmt"
	"math"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// TestIndexedDeltaMerge pushes enough ordering constraints through one
// (attribute, operator) index to overflow the delta buffer several times
// and verifies matching stays exact across the merges.
func TestIndexedDeltaMerge(t *testing.T) {
	it := NewIndexedTable(nil)
	naive := NewNaiveTable(nil)
	n := ordDeltaCap*2 + 57
	for i := 0; i < n; i++ {
		f := &filter.Filter{Constraints: []filter.Constraint{
			filter.C("price", filter.OpGt, event.Float(float64(i))),
		}}
		id := fmt.Sprintf("s%04d", i)
		it.Insert(f, id)
		naive.Insert(f, id)
	}
	p := it.attrs["price"]
	if p.ord[2].core.size() == 0 {
		t.Fatalf("delta never merged into core: core=%d delta=%d",
			p.ord[2].core.size(), len(p.ord[2].delta))
	}
	if len(p.ord[2].delta) >= ordDeltaCap {
		t.Fatalf("delta exceeded cap: %d", len(p.ord[2].delta))
	}
	for _, v := range []float64{-1, 0.5, float64(n) / 2, float64(n) + 10} {
		e := event.NewBuilder("T").Float("price", v).Build()
		nids, _ := naive.Match(e)
		iids, _ := it.Match(e)
		if fmt.Sprint(nids) != fmt.Sprint(iids) {
			t.Fatalf("price=%v: naive %d ids, indexed %d ids", v, len(nids), len(iids))
		}
	}
}

// TestIndexedTombstonePurge removes most subscriptions and checks that
// (a) tombstoned threshold entries never resurrect matches, and (b) the
// amortized purge eventually reclaims the dead entries and their slots.
func TestIndexedTombstonePurge(t *testing.T) {
	it := NewIndexedTable(nil)
	n := 600
	for i := 0; i < n; i++ {
		f := &filter.Filter{Constraints: []filter.Constraint{
			filter.C("load", filter.OpGe, event.Float(float64(i))),
		}}
		it.Insert(f, fmt.Sprintf("s%04d", i))
	}
	// Remove every subscription but the last 10.
	for i := 0; i < n-10; i++ {
		it.RemoveID(fmt.Sprintf("s%04d", i))
	}
	if it.Len() != 10 {
		t.Fatalf("Len = %d, want 10", it.Len())
	}
	e := event.NewBuilder("T").Float("load", float64(n)).Build()
	ids, matched := it.Match(e)
	if len(ids) != 10 || matched != 10 {
		t.Fatalf("Match after churn = %d ids (%d matched), want 10", len(ids), matched)
	}
	// The purge threshold (ordDead*4 >= ordLive) was crossed long ago;
	// dead entries must be mostly reclaimed and slots recycled.
	if it.ordDead >= 64 && it.ordDead*4 >= it.ordLive {
		t.Errorf("purge never ran: ordDead=%d ordLive=%d", it.ordDead, it.ordLive)
	}
	if len(it.free) == 0 {
		t.Error("no tombstoned slots were recycled")
	}
	// Recycled slots must be reusable without ghost matches.
	f := &filter.Filter{Constraints: []filter.Constraint{
		filter.C("load", filter.OpLt, event.Float(5)),
	}}
	it.Insert(f, "fresh")
	lo := event.NewBuilder("T").Float("load", 1).Build()
	ids, _ = it.Match(lo)
	if fmt.Sprint(ids) != "[fresh]" {
		t.Fatalf("Match after reuse = %v, want [fresh]", ids)
	}
}

// TestIndexedSlotHeldByOrdRefs verifies a tombstoned slot is not recycled
// while threshold cores still reference it, and is recycled once a merge
// releases the last reference.
func TestIndexedSlotHeldByOrdRefs(t *testing.T) {
	it := NewIndexedTable(nil)
	f := &filter.Filter{Constraints: []filter.Constraint{
		filter.C("x", filter.OpLt, event.Float(10)),
	}}
	it.Insert(f, "a")
	it.Remove(f, "a")
	if len(it.free) != 0 {
		t.Fatalf("slot recycled while threshold entry still live")
	}
	// Force the delta to merge; the dead entry is dropped and the slot
	// becomes reusable.
	it.mergeOrd(&it.attrs["x"].ord[0])
	if len(it.free) != 1 {
		t.Fatalf("slot not recycled after merge: free=%v", it.free)
	}
	if it.ordDead != 0 {
		t.Fatalf("ordDead = %d, want 0", it.ordDead)
	}
}

// TestIndexedPrefixSuffixEdges covers the per-length prefix/suffix
// lookups: empty operands (match every string), operands longer than the
// value, and overlapping lengths.
func TestIndexedPrefixSuffixEdges(t *testing.T) {
	it := NewIndexedTable(nil)
	naive := NewNaiveTable(nil)
	mk := func(op filter.Op, operand, id string) {
		f := &filter.Filter{Constraints: []filter.Constraint{
			filter.C("topic", op, event.String(operand)),
		}}
		it.Insert(f, id)
		naive.Insert(f, id)
	}
	mk(filter.OpPrefix, "", "p-empty")
	mk(filter.OpPrefix, "a", "p-a")
	mk(filter.OpPrefix, "ab", "p-ab")
	mk(filter.OpPrefix, "abcdef", "p-long")
	mk(filter.OpSuffix, "", "s-empty")
	mk(filter.OpSuffix, "b", "s-b")
	mk(filter.OpSuffix, "ab", "s-ab")
	for _, v := range []string{"", "a", "ab", "ba", "abc", "abcdef", "zab"} {
		e := event.NewBuilder("T").Str("topic", v).Build()
		nids, _ := naive.Match(e)
		iids, _ := it.Match(e)
		if fmt.Sprint(nids) != fmt.Sprint(iids) {
			t.Errorf("topic=%q: naive %v, indexed %v", v, nids, iids)
		}
	}
}

// TestIndexedNaN checks NaN semantics end to end: NaN event values and
// NaN operands satisfy no equality or ordering constraint, in every
// engine.
func TestIndexedNaN(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			ops := []filter.Op{filter.OpEq, filter.OpLt, filter.OpLe, filter.OpGt, filter.OpGe}
			for i, op := range ops {
				eng.Insert(&filter.Filter{Constraints: []filter.Constraint{
					filter.C("v", op, event.Float(5)),
				}}, fmt.Sprintf("num%d", i))
				eng.Insert(&filter.Filter{Constraints: []filter.Constraint{
					filter.C("v", op, event.Float(math.NaN())),
				}}, fmt.Sprintf("nan%d", i))
			}
			nan := event.NewBuilder("T").Float("v", math.NaN()).Build()
			if ids, _ := eng.Match(nan); len(ids) != 0 {
				t.Errorf("NaN value matched %v, want none", ids)
			}
			five := event.NewBuilder("T").Float("v", 5).Build()
			ids, _ := eng.Match(five)
			if fmt.Sprint(ids) != "[num0 num2 num4]" { // Eq, Le, Ge at 5
				t.Errorf("v=5 matched %v, want [num0 num2 num4]", ids)
			}
		})
	}
}

// TestIndexedCrossKindEq verifies Int/Float cross-kind equality and ±0
// collapse in the eq postings.
func TestIndexedCrossKindEq(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			eng.Insert(&filter.Filter{Constraints: []filter.Constraint{
				filter.C("x", filter.OpEq, event.Int(5)),
			}}, "int5")
			eng.Insert(&filter.Filter{Constraints: []filter.Constraint{
				filter.C("x", filter.OpEq, event.Float(0)),
			}}, "zero")
			e := event.NewBuilder("T").Float("x", 5).Build()
			if ids, _ := eng.Match(e); fmt.Sprint(ids) != "[int5]" {
				t.Errorf("Float(5) matched %v, want [int5]", ids)
			}
			neg := event.NewBuilder("T").Float("x", math.Copysign(0, -1)).Build()
			if ids, _ := eng.Match(neg); fmt.Sprint(ids) != "[zero]" {
				t.Errorf("Float(-0) matched %v, want [zero]", ids)
			}
		})
	}
}

// TestIndexedScanResidue routes inherently unindexable constraints
// (contains, string ordering, not-equal) through the scan list.
func TestIndexedScanResidue(t *testing.T) {
	it := NewIndexedTable(nil)
	naive := NewNaiveTable(nil)
	add := func(f *filter.Filter, id string) {
		it.Insert(f, id)
		naive.Insert(f, id)
	}
	add(&filter.Filter{Constraints: []filter.Constraint{
		filter.C("s", filter.OpContains, event.String("bc")),
	}}, "contains")
	add(&filter.Filter{Constraints: []filter.Constraint{
		filter.C("s", filter.OpGt, event.String("m")),
	}}, "str-gt")
	add(&filter.Filter{Constraints: []filter.Constraint{
		filter.C("s", filter.OpNe, event.String("abc")),
	}}, "ne")
	if got := len(it.attrs["s"].scan); got != 3 {
		t.Fatalf("scan residue has %d entries, want 3", got)
	}
	for _, v := range []string{"abc", "abcd", "xyz", "m", "n"} {
		e := event.NewBuilder("T").Str("s", v).Build()
		nids, _ := naive.Match(e)
		iids, _ := it.Match(e)
		if fmt.Sprint(nids) != fmt.Sprint(iids) {
			t.Errorf("s=%q: naive %v, indexed %v", v, nids, iids)
		}
	}
}

// TestIndexedRemoveIDReverseIndex checks RemoveID visits only the slots
// of the departing id (the byID reverse index stays exact through
// inserts and removes).
func TestIndexedRemoveIDReverseIndex(t *testing.T) {
	it := NewIndexedTable(nil)
	for i := 0; i < 20; i++ {
		f := &filter.Filter{Constraints: []filter.Constraint{
			filter.C("x", filter.OpEq, event.Int(int64(i))),
		}}
		it.Insert(f, "keep")
		if i%2 == 0 {
			it.Insert(f, "drop")
		}
	}
	if got := len(it.byID["drop"]); got != 10 {
		t.Fatalf("byID[drop] = %d slots, want 10", got)
	}
	it.RemoveID("drop")
	if _, ok := it.byID["drop"]; ok {
		t.Error("byID entry survived RemoveID")
	}
	if it.Len() != 20 {
		t.Fatalf("Len = %d, want 20 (filters still held by keep)", it.Len())
	}
	it.RemoveID("keep")
	if it.Len() != 0 {
		t.Fatalf("Len = %d, want 0", it.Len())
	}
	// Idempotent on absent ids.
	it.RemoveID("ghost")
}

// TestIndexedPairGroups covers the access-predicate pairing fast path:
// two-constraint (access ∧ threshold) filters must be indexed as pair
// groups behind the access posting — not in the global per-operator
// structures — match exactly, honor the mirrored threshold bounds, and
// be reclaimed by the amortized purge.
func TestIndexedPairGroups(t *testing.T) {
	it := NewIndexedTable(nil)
	naive := NewNaiveTable(nil)
	add := func(id string, cs ...filter.Constraint) {
		f := &filter.Filter{Constraints: cs}
		it.Insert(f, id)
		naive.Insert(f, id)
	}
	n := 100
	for i := 0; i < n; i++ {
		add(fmt.Sprintf("ceil%02d", i),
			filter.C("metric", filter.OpEq, event.String("cpu")),
			filter.C("value", filter.OpGe, event.Float(90+float64(i)/10)))
		add(fmt.Sprintf("floor%02d", i),
			filter.C("metric", filter.OpEq, event.String("cpu")),
			filter.C("value", filter.OpLe, event.Float(1+float64(i)/10)))
	}
	add("pfx",
		filter.C("topic", filter.OpPrefix, event.String("a/b")),
		filter.C("value", filter.OpGt, event.Float(50)))

	// Paired filters bypass the global ordering indexes entirely.
	p := it.attrs["value"]
	if p != nil {
		for i := range p.ord {
			if got := p.ord[i].core.size() + len(p.ord[i].delta); got != 0 {
				t.Fatalf("global ord[%d] has %d entries; paired filters must not land there", i, got)
			}
		}
	}
	po := it.attrs["metric"].eqStr["cpu"]
	if po == nil || len(po.pairs) != 2 {
		t.Fatalf("metric=cpu postings should carry 2 pair groups (Ge, Le), got %+v", po)
	}
	for _, g := range po.pairs {
		if g.battr != "value" {
			t.Fatalf("pair group partner = %q, want value", g.battr)
		}
		if g.lo != g.oi.lo || g.hi != g.oi.hi {
			t.Fatalf("mirrored bounds [%g,%g] diverge from index bounds [%g,%g]",
				g.lo, g.hi, g.oi.lo, g.oi.hi)
		}
	}

	ev := func(metric string, v float64) event.View {
		return event.NewBuilder("T").Str("metric", metric).Str("topic", "a/b/c").Float("value", v).Build()
	}
	for _, v := range []float64{0.5, 1.05, 50, 90.05, 99, 200} {
		e := ev("cpu", v)
		nids, _ := naive.Match(e)
		iids, _ := it.Match(e)
		if fmt.Sprint(nids) != fmt.Sprint(iids) {
			t.Errorf("value=%v: naive %v, indexed %v", v, nids, iids)
		}
	}
	// An event missing the access predicate must match nothing paired.
	if ids, _ := it.Match(ev("mem", 99)); fmt.Sprint(ids) != "[pfx]" {
		t.Errorf("metric=mem value=99 matched %v, want [pfx] only", ids)
	}

	// Removing all ceiling filters defers their threshold entries to the
	// amortized purge; it must have fired at least once along the way.
	for i := 0; i < n; i++ {
		it.RemoveID(fmt.Sprintf("ceil%02d", i))
		naive.RemoveID(fmt.Sprintf("ceil%02d", i))
	}
	if it.ordDead >= 64 && it.ordDead*4 >= it.ordLive {
		t.Fatalf("purge never ran: ordDead=%d ordLive=%d", it.ordDead, it.ordLive)
	}
	// Tombstones below the trigger threshold wait for the next purge; a
	// full sweep must reclaim the emptied Ge pair group and its slots.
	it.purgeOrd()
	po = it.attrs["metric"].eqStr["cpu"]
	if po == nil || len(po.pairs) != 1 {
		t.Fatalf("after purge, metric=cpu should keep 1 pair group, got %+v", po)
	}
	if len(it.free) == 0 {
		t.Error("no tombstoned paired slots were recycled")
	}
	e := ev("cpu", 99)
	nids, _ := naive.Match(e)
	iids, _ := it.Match(e)
	if fmt.Sprint(nids) != fmt.Sprint(iids) {
		t.Errorf("after churn value=99: naive %v, indexed %v", nids, iids)
	}
}

// TestIndexedPresenceVerified pins hit-time presence verification: the
// wildcards of a standard-form filter are set aside at Insert (so the
// remainder is paired or a single threshold again), an event lacking a
// wildcarded attribute is still rejected, presence-only filters keep the
// counted path, and removal recycles such slots without stale credits —
// whether the filter is removed by itself or with its whole ID.
func TestIndexedPresenceVerified(t *testing.T) {
	num := func(attr string, op filter.Op, v float64) filter.Constraint {
		return filter.C(attr, op, event.Float(v))
	}
	exists := func(attr string) filter.Constraint { return filter.Constraint{Attr: attr, Op: filter.OpExists} }
	// ev builds an Alert from (name, value) pairs, in order.
	ev := func(kv ...any) *event.Event {
		b := event.NewBuilder("Alert")
		for i := 0; i < len(kv); i += 2 {
			b.Float(kv[i].(string), float64(kv[i+1].(int)))
		}
		return b.Build()
	}
	cases := []struct {
		name      string
		cs        []filter.Constraint
		shape     Shape
		hit, miss []*event.Event
	}{
		{
			name:  "pair inside wildcards",
			cs:    []filter.Constraint{num("metric", filter.OpEq, 1), num("value", filter.OpGe, 90), filter.Wild("topic"), exists("note")},
			shape: Shape{Paired: 1, Deferred: 1},
			hit:   []*event.Event{ev("metric", 1, "value", 95, "topic", 0, "note", 0)},
			miss: []*event.Event{
				ev("metric", 1, "value", 95, "topic", 0), // lacks note
				ev("metric", 1, "value", 95, "note", 0),  // lacks topic
				ev("metric", 2, "value", 95, "topic", 0, "note", 0),
				ev("metric", 1, "value", 10, "topic", 0, "note", 0),
			},
		},
		{
			name:  "one threshold inside wildcards",
			cs:    []filter.Constraint{filter.Wild("metric"), num("value", filter.OpGe, 90), filter.Wild("topic")},
			shape: Shape{General: 1, Deferred: 1},
			hit:   []*event.Event{ev("metric", 1, "value", 95, "topic", 0)},
			miss:  []*event.Event{ev("value", 95, "topic", 0), ev("metric", 1, "value", 10, "topic", 0)},
		},
		{
			name:  "presence only stays counted",
			cs:    []filter.Constraint{filter.Wild("metric"), exists("note")},
			shape: Shape{General: 1, PresenceMax: 1},
			hit:   []*event.Event{ev("note", 0, "metric", 1)},
			miss:  []*event.Event{ev("metric", 1), ev()},
		},
		{
			name:  "pair as given keeps its presence access",
			cs:    []filter.Constraint{exists("note"), num("value", filter.OpGe, 90)},
			shape: Shape{Paired: 1},
			hit:   []*event.Event{ev("note", 0, "value", 95)},
			miss:  []*event.Event{ev("value", 95), ev("note", 0, "value", 10)},
		},
		{
			name:  "presence on the class attribute",
			cs:    []filter.Constraint{filter.Wild(event.TypeAttr), num("metric", filter.OpEq, 1)},
			shape: Shape{General: 1, Deferred: 1},
			hit:   []*event.Event{ev("metric", 1)},
			miss:  []*event.Event{ev("metric", 2)},
		},
		{
			name:  "duplicate event attributes: the first occurrence decides",
			cs:    []filter.Constraint{num("metric", filter.OpEq, 1), num("value", filter.OpGe, 90), filter.Wild("topic")},
			shape: Shape{Paired: 1, Deferred: 1},
			hit:   []*event.Event{ev("metric", 1, "metric", 2, "value", 95, "value", 10, "topic", 0, "topic", 1)},
			miss: []*event.Event{
				ev("metric", 2, "metric", 1, "value", 95, "topic", 0),
				ev("metric", 1, "value", 10, "value", 95, "topic", 0),
			},
		},
		{
			name:  "presence repeated on a selectively constrained attribute",
			cs:    []filter.Constraint{num("metric", filter.OpEq, 1), filter.Wild("metric"), exists("metric"), filter.Wild("metric"), num("value", filter.OpLt, 5)},
			shape: Shape{Paired: 1, Deferred: 1},
			hit:   []*event.Event{ev("metric", 1, "value", 0)},
			miss:  []*event.Event{ev("metric", 1, "value", 5), ev("value", 0)},
		},
		{
			name:  "scan residue inside wildcards",
			cs:    []filter.Constraint{num("metric", filter.OpNe, 1), filter.Wild("topic")},
			shape: Shape{General: 1, Deferred: 1, ScanEntries: 1},
			hit:   []*event.Event{ev("metric", 2, "topic", 0)},
			miss:  []*event.Event{ev("metric", 2), ev("metric", 1, "topic", 0), ev("topic", 0)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := filter.New("Alert", tc.cs...)
			it := NewIndexedTable(nil)
			engines := map[string]Engine{"by-filter": it, "by-id": NewIndexedTable(nil)}
			check := func(eng Engine, name string, stored bool) {
				t.Helper()
				for i, e := range append(append([]*event.Event{}, tc.hit...), tc.miss...) {
					want := i < len(tc.hit)
					if f.Matches(e, nil) != want {
						t.Fatalf("case is wrong: filter.Matches(%s) = %v", e, !want)
					}
					if ids, _ := eng.Match(e); (len(ids) == 1) != (want && stored) {
						t.Errorf("%s (stored=%v): Match(%s) = %v, filter.Matches = %v", name, stored, e, ids, want)
					}
				}
			}
			for name, eng := range engines {
				eng.Insert(f, "s")
				if got := ShapeOf(eng); got != tc.shape {
					t.Errorf("%s: Shape = %+v, want %+v", name, got, tc.shape)
				}
				check(eng, name, true)
			}
			// Removal by filter on one engine, by ID on the other.
			it.Remove(f, "s")
			engines["by-id"].RemoveID("s")
			for name, eng := range engines {
				if got := ShapeOf(eng); eng.Len() != 0 || got != (Shape{}) {
					t.Errorf("%s after removal: Len = %d, Shape = %+v", name, eng.Len(), got)
				}
				check(eng, name, false)
			}
			// The tombstone waits for its threshold entry to be purged;
			// then the slot is recycled and the accounts are square.
			if refs := it.slots[0].ordRefs; (refs == 0) != (len(it.free) == 1) {
				t.Fatalf("ordRefs = %d but free = %v", refs, it.free)
			}
			it.purgeOrd()
			if len(it.free) != 1 || it.ordLive != 0 || it.ordDead != 0 {
				t.Fatalf("after purge: free = %v, ordLive = %d, ordDead = %d", it.free, it.ordLive, it.ordDead)
			}
			// A one-constraint filter reusing the slot would be a hit on
			// any stale credit: none of the old filter's events may match.
			it.Insert(filter.New("Alert", num("unrelated", filter.OpEq, 1)), "fresh")
			if len(it.slots) != 1 {
				t.Fatalf("slot not reused: %d slots", len(it.slots))
			}
			for _, e := range append(tc.hit, tc.miss...) {
				if ids, _ := it.Match(e); len(ids) != 0 {
					t.Errorf("stale credit on the reused slot: Match(%s) = %v", e, ids)
				}
			}
		})
	}
}
