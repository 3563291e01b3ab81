package index

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// engines returns a fresh instance of each Engine implementation.
func engines(conf filter.Conformance) map[string]Engine {
	return map[string]Engine{
		"naive":   NewNaiveTable(conf),
		"indexed": NewIndexedTable(conf),
	}
}

// TestKindSelection covers the engine constructor: the zero Config builds
// the indexed table, KindNaive the reference table.
func TestKindSelection(t *testing.T) {
	if _, ok := New(Config{}).(*IndexedTable); !ok {
		t.Error("zero Config should select the indexed table")
	}
	if _, ok := New(Config{Kind: KindNaive}).(*NaiveTable); !ok {
		t.Error("KindNaive should select the naive table")
	}
	if KindIndexed.String() != "indexed" || KindNaive.String() != "naive" {
		t.Errorf("Kind names = %q, %q", KindIndexed, KindNaive)
	}
}

func TestEngineBasicMatch(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f1 := filter.MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10`)
			f2 := filter.MustParseFilter(`class = "Stock" && symbol = "Bar"`)
			f3 := filter.MustParseFilter(`class = "Auction"`)
			eng.Insert(f1, "n1")
			eng.Insert(f2, "n2")
			eng.Insert(f3, "n3")

			e := event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 9).Build()
			ids, matched := eng.Match(e)
			if matched != 1 || len(ids) != 1 || ids[0] != "n1" {
				t.Errorf("Match = %v (%d), want [n1] (1)", ids, matched)
			}

			auction := event.NewBuilder("Auction").Str("product", "Vehicle").Build()
			ids, matched = eng.Match(auction)
			if matched != 1 || len(ids) != 1 || ids[0] != "n3" {
				t.Errorf("Match auction = %v (%d), want [n3]", ids, matched)
			}

			miss := event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 12).Build()
			ids, matched = eng.Match(miss)
			if matched != 0 || len(ids) != 0 {
				t.Errorf("Match miss = %v (%d), want none", ids, matched)
			}
		})
	}
}

func TestEngineMultiIDAndDedup(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f := filter.MustParseFilter(`x = 1`)
			eng.Insert(f, "a")
			eng.Insert(f.Clone(), "b") // same filter identity
			eng.Insert(f, "a")         // duplicate id
			if eng.Len() != 1 {
				t.Fatalf("Len = %d, want 1 (dedup by filter)", eng.Len())
			}
			e := event.NewBuilder("T").Int("x", 1).Build()
			ids, matched := eng.Match(e)
			if fmt.Sprint(ids) != "[a b]" {
				t.Errorf("Match = %v, want [a b]", ids)
			}
			if matched != 1 {
				t.Errorf("matched = %d, want 1", matched)
			}
		})
	}
}

func TestEngineRemove(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f1 := filter.MustParseFilter(`x = 1`)
			f2 := filter.MustParseFilter(`x = 2`)
			eng.Insert(f1, "a")
			eng.Insert(f1, "b")
			eng.Insert(f2, "a")
			eng.Remove(f1, "a")
			e1 := event.NewBuilder("T").Int("x", 1).Build()
			ids, _ := eng.Match(e1)
			if fmt.Sprint(ids) != "[b]" {
				t.Errorf("after Remove: %v, want [b]", ids)
			}
			eng.Remove(f1, "b")
			if eng.Len() != 1 {
				t.Errorf("Len = %d, want 1 after filter fully removed", eng.Len())
			}
			ids, matched := eng.Match(e1)
			if matched != 0 || len(ids) != 0 {
				t.Errorf("removed filter still matches: %v", ids)
			}
			// Removing a nonexistent association is a no-op.
			eng.Remove(f1, "zzz")
			eng.Remove(filter.MustParseFilter(`y = 9`), "a")
		})
	}
}

func TestEngineRemoveID(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f1 := filter.MustParseFilter(`x = 1`)
			f2 := filter.MustParseFilter(`x = 2`)
			eng.Insert(f1, "a")
			eng.Insert(f2, "a")
			eng.Insert(f2, "b")
			eng.RemoveID("a")
			if eng.Len() != 1 {
				t.Fatalf("Len = %d, want 1", eng.Len())
			}
			e2 := event.NewBuilder("T").Int("x", 2).Build()
			ids, _ := eng.Match(e2)
			if fmt.Sprint(ids) != "[b]" {
				t.Errorf("after RemoveID: %v, want [b]", ids)
			}
		})
	}
}

func TestEngineReinsertAfterRemove(t *testing.T) {
	// Exercises slot recycling in the indexed table.
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f1 := filter.MustParseFilter(`x = 1`)
			f2 := filter.MustParseFilter(`x = 2 && y > 3`)
			eng.Insert(f1, "a")
			eng.Remove(f1, "a")
			eng.Insert(f2, "b")
			e := event.NewBuilder("T").Int("x", 2).Int("y", 4).Build()
			ids, matched := eng.Match(e)
			if matched != 1 || fmt.Sprint(ids) != "[b]" {
				t.Errorf("Match = %v (%d), want [b]", ids, matched)
			}
			e1 := event.NewBuilder("T").Int("x", 1).Build()
			if ids, _ := eng.Match(e1); len(ids) != 0 {
				t.Errorf("recycled slot matched stale filter: %v", ids)
			}
		})
	}
}

func TestEngineClassConformance(t *testing.T) {
	conf := fakeConformance{"TechStock": {"Stock"}}
	for name, eng := range engines(conf) {
		t.Run(name, func(t *testing.T) {
			eng.Insert(filter.MustParseFilter(`class = "Stock" && price < 10`), "x")
			e := event.NewBuilder("TechStock").Float("price", 5).Build()
			ids, _ := eng.Match(e)
			if fmt.Sprint(ids) != "[x]" {
				t.Errorf("subtype event did not match supertype filter: %v", ids)
			}
		})
	}
}

type fakeConformance map[string][]string

func (f fakeConformance) Conforms(sub, super string) bool {
	if sub == super || super == filter.RootType {
		return true
	}
	for _, s := range f[sub] {
		if s == super {
			return true
		}
	}
	return false
}

func TestEngineDuplicateConstraint(t *testing.T) {
	// price > 1 && price > 1 needs the count to reach 2 via the same
	// value; guards against double-count bugs in either direction.
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f := &filter.Filter{Constraints: []filter.Constraint{
				filter.C("price", filter.OpGt, event.Int(1)),
				filter.C("price", filter.OpGt, event.Int(1)),
			}}
			eng.Insert(f, "a")
			e := event.NewBuilder("T").Int("price", 5).Build()
			ids, _ := eng.Match(e)
			if fmt.Sprint(ids) != "[a]" {
				t.Errorf("Match = %v, want [a]", ids)
			}
			lo := event.NewBuilder("T").Int("price", 0).Build()
			if ids, _ := eng.Match(lo); len(ids) != 0 {
				t.Errorf("Match = %v, want none", ids)
			}
		})
	}
}

func TestEngineDuplicateEqConstraint(t *testing.T) {
	for name, eng := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			f := &filter.Filter{Constraints: []filter.Constraint{
				filter.C("x", filter.OpEq, event.Int(1)),
				filter.C("x", filter.OpEq, event.Int(1)),
			}}
			eng.Insert(f, "a")
			e := event.NewBuilder("T").Int("x", 1).Build()
			if ids, _ := eng.Match(e); fmt.Sprint(ids) != "[a]" {
				t.Errorf("Match = %v, want [a]", ids)
			}
		})
	}
}

// TestEnginesAgreeProperty cross-validates the indexed engine against the
// naive table and direct filter evaluation on random workloads,
// including inserts, per-association removes, and whole-ID removes
// (which exercise the indexed engine's tombstone/rebuild lifecycle).
func TestEnginesAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	naive := NewNaiveTable(nil)
	indexed := NewIndexedTable(nil)
	type assoc struct {
		f  *filter.Filter
		id string
	}
	var live []assoc
	for round := 0; round < 2500; round++ {
		switch r := rng.IntN(10); {
		case len(live) == 0 || r < 6:
			f := randomIdxFilter(rng)
			id := fmt.Sprintf("id%d", rng.IntN(10))
			naive.Insert(f, id)
			indexed.Insert(f, id)
			live = append(live, assoc{f, id})
		case r < 9:
			i := rng.IntN(len(live))
			naive.Remove(live[i].f, live[i].id)
			indexed.Remove(live[i].f, live[i].id)
			live = append(live[:i], live[i+1:]...)
		default:
			id := fmt.Sprintf("id%d", rng.IntN(10))
			naive.RemoveID(id)
			indexed.RemoveID(id)
			kept := live[:0]
			for _, a := range live {
				if a.id != id {
					kept = append(kept, a)
				}
			}
			live = kept
		}
		e := randomIdxEvent(rng)
		nids, nm := naive.Match(e)
		if indexed.Len() != naive.Len() {
			t.Fatalf("round %d: Len diverged naive=%d indexed=%d", round, naive.Len(), indexed.Len())
		}
		ids, m := indexed.Match(e)
		if fmt.Sprint(nids) != fmt.Sprint(ids) {
			t.Fatalf("round %d: engines diverge on %s:\n naive %v (%d)\n indexed %v (%d)", round, e, nids, nm, ids, m)
		}
		if m != nm {
			t.Fatalf("round %d: matched count diverged naive=%d indexed=%d", round, nm, m)
		}
		// Spot-check against direct evaluation.
		want := 0
		for _, f := range naive.Filters() {
			if f.Matches(e, nil) {
				want++
			}
		}
		if nm != want {
			t.Fatalf("round %d: matched=%d, direct evaluation=%d", round, nm, want)
		}
	}
}

func randomIdxFilter(rng *rand.Rand) *filter.Filter {
	f := &filter.Filter{}
	if rng.IntN(2) == 0 {
		f.Class = []string{"A", "B"}[rng.IntN(2)]
	}
	ops := []filter.Op{
		filter.OpEq, filter.OpEq, filter.OpNe,
		filter.OpLt, filter.OpLe, filter.OpGt, filter.OpGe,
		filter.OpPrefix, filter.OpSuffix, filter.OpContains,
		filter.OpExists, filter.OpAny,
	}
	for range 1 + rng.IntN(3) {
		op := ops[rng.IntN(len(ops))]
		attr := []string{"w", "x", "y", "z"}[rng.IntN(4)]
		c := filter.Constraint{Attr: attr, Op: op}
		if op.NeedsOperand() {
			switch {
			case op == filter.OpPrefix || op == filter.OpSuffix || op == filter.OpContains:
				c.Operand = event.String(randomIdxStr(rng))
			case rng.IntN(2) == 0:
				c.Operand = event.Int(int64(rng.IntN(5)))
			default:
				c.Operand = event.String(randomIdxStr(rng))
			}
		}
		f.Constraints = append(f.Constraints, c)
	}
	return f
}

// randomIdxStr returns "", "a".."c", or a two-rune string; short strings
// make prefix/suffix/contains collisions (and misses) likely.
func randomIdxStr(rng *rand.Rand) string {
	n := rng.IntN(3)
	s := make([]rune, n)
	for i := range s {
		s[i] = rune('a' + rng.IntN(3))
	}
	return string(s)
}

func randomIdxEvent(rng *rand.Rand) *event.Event {
	b := event.NewBuilder([]string{"A", "B", "C"}[rng.IntN(3)])
	for _, attr := range []string{"w", "x", "y", "z"} {
		if rng.IntN(3) == 0 {
			continue
		}
		switch rng.IntN(5) {
		case 0, 1:
			b.Int(attr, int64(rng.IntN(5)))
		case 2:
			b.Float(attr, []float64{0, math.Copysign(0, -1), 2.5, math.NaN()}[rng.IntN(4)])
		default:
			b.Str(attr, randomIdxStr(rng))
		}
	}
	return b.Build()
}

func TestNaiveTableIDs(t *testing.T) {
	nt := NewNaiveTable(nil)
	f := filter.MustParseFilter(`x = 1`)
	nt.Insert(f, "b")
	nt.Insert(f, "a")
	if got := fmt.Sprint(nt.IDs(f)); got != "[a b]" {
		t.Errorf("IDs = %s, want [a b]", got)
	}
	if got := nt.IDs(filter.MustParseFilter(`y = 1`)); got != nil {
		t.Errorf("IDs of absent filter = %v", got)
	}
}
