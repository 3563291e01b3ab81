package filter

import (
	"math/rand/v2"
	"testing"

	"eventsys/internal/event"
)

func TestExample2Covering(t *testing.T) {
	// Filters f', f'', f''' of Example 2 all cover f of Example 1.
	f := paperFilter()
	fp := New("", C("symbol", OpEq, event.String("Foo")))
	fpp := New("", C("price", OpGt, event.Float(5.0)))
	fppp := New("",
		C("symbol", OpEq, event.String("Foo")),
		C("price", OpGe, event.Float(4.5)),
	)
	for name, weak := range map[string]*Filter{"f'": fp, "f''": fpp, "f'''": fppp} {
		if !Covers(weak, f, nil) {
			t.Errorf("%s should cover f", name)
		}
		if Covers(f, weak, nil) {
			t.Errorf("f should not cover %s", name)
		}
	}
}

func TestSection34Covering(t *testing.T) {
	// f1, g1 of Section 3.4: weakening makes g1 cover f1.
	f1 := MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10.0`)
	g1 := MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 11.0`)
	g2 := MustParseFilter(`class = "Stock" && symbol = "Foo"`)
	g3 := MustParseFilter(`class = "Stock"`)
	if !Covers(g1, f1, nil) {
		t.Error("g1 should cover f1")
	}
	if !Covers(g2, g1, nil) {
		t.Error("g2 should cover g1")
	}
	if !Covers(g3, g2, nil) {
		t.Error("g3 should cover g2")
	}
	// Transitively g3 covers f1.
	if !Covers(g3, f1, nil) {
		t.Error("g3 should cover f1 transitively")
	}
	if Covers(f1, g1, nil) {
		t.Error("f1 must not cover the weaker g1")
	}
}

func TestCoveringTable(t *testing.T) {
	tests := []struct {
		name       string
		weak, strg string
		want       bool
	}{
		{"wider lt", `price < 11`, `price < 10`, true},
		{"narrower lt", `price < 10`, `price < 11`, false},
		{"same bound", `price < 10`, `price < 10`, true},
		{"le covers lt same", `price <= 10`, `price < 10`, true},
		{"lt not covers le same", `price < 10`, `price <= 10`, false},
		{"gt dual", `price > 5`, `price > 6`, true},
		{"ge covers gt", `price >= 5`, `price > 5`, true},
		{"gt not covers ge", `price > 5`, `price >= 5`, false},
		{"eq inside range", `price < 10`, `price = 7`, true},
		{"eq outside range", `price < 10`, `price = 12`, false},
		{"eq at strict bound", `price < 10`, `price = 10`, false},
		{"eq at loose bound", `price <= 10`, `price = 10`, true},
		{"eq vs eq same", `sym = "A"`, `sym = "A"`, true},
		{"eq vs eq diff", `sym = "A"`, `sym = "B"`, false},
		{"missing attr in strong", `price < 10`, `sym = "A"`, false},
		{"extra attr in strong", `price < 10`, `price < 9 && sym = "A"`, true},
		{"wildcard covers all", `price any`, `price = 3`, true},
		{"wildcard covers wildcard", `price any`, `price any`, true},
		{"eq not covers wildcard", `price = 3`, `price any`, false},
		{"exists covers eq", `price exists`, `price = 3`, true},
		{"range covers range", `price > 1 && price < 10`, `price > 2 && price < 9`, true},
		{"range partial overlap", `price > 2 && price < 10`, `price > 1 && price < 9`, false},
		{"interval covers point interval", `price < 10`, `price >= 3 && price <= 3`, true},
		{"ne covers ne", `x != 5`, `x != 5`, true},
		{"ne not cover unconstrained", `x != 5`, `x > 0`, false},
		{"ne covered by disjoint range", `x != 5`, `x > 6`, true},
		{"ne covered by eq other", `x != 5`, `x = 4`, true},
		{"ne not covered by eq same", `x != 5`, `x = 5`, false},
		{"prefix covers longer prefix", `s prefix "ab"`, `s prefix "abc"`, true},
		{"prefix not covers shorter", `s prefix "abc"`, `s prefix "ab"`, false},
		{"prefix covers eq", `s prefix "ab"`, `s = "abide"`, true},
		{"prefix not covers eq", `s prefix "ab"`, `s = "ba"`, false},
		{"suffix covers eq", `s suffix "de"`, `s = "abide"`, true},
		{"contains covers eq", `s contains "bid"`, `s = "abide"`, true},
		{"contains via prefix", `s contains "ab"`, `s prefix "abc"`, true},
		{"contains via contains", `s contains "b"`, `s contains "abc"`, true},
		{"string order", `s < "m"`, `s < "k"`, true},
		{"string order fail", `s < "k"`, `s < "m"`, false},
		{"numeric int float", `price < 10.5`, `price < 10`, true},
		{"unsatisfiable strong vacuous", `price < 10`, `x = 1 && x = 2`, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := MustParseFilter(tt.weak)
			s := MustParseFilter(tt.strg)
			if got := Covers(w, s, nil); got != tt.want {
				t.Errorf("Covers(%s, %s) = %v, want %v", tt.weak, tt.strg, got, tt.want)
			}
		})
	}
}

func TestCoveringKindMismatchBounds(t *testing.T) {
	// price < "a" admits only strings; price < 10 admits only numbers.
	// Each filter is individually satisfiable but neither may claim to
	// cover the other.
	w := MustParseFilter(`price < 10`)
	s := MustParseFilter(`price < "a"`)
	if Covers(w, s, nil) {
		t.Error("numeric bound must not cover string bound")
	}
	if Covers(s, w, nil) {
		t.Error("string bound must not cover numeric bound")
	}
}

func TestClassCovering(t *testing.T) {
	conf := fakeConformance{
		"Stock":     {"Quote", RootType},
		"TechStock": {"Stock", "Quote", RootType},
		"Quote":     {RootType},
	}
	tests := []struct {
		weak, strg string
		want       bool
	}{
		{"Quote", "Stock", true},
		{"Quote", "TechStock", true},
		{"Stock", "Quote", false},
		{"", "Stock", true},
		{"Stock", "", false}, // weak constrains class, strong does not
		{RootType, "Stock", true},
		{"Stock", "Stock", true},
	}
	for _, tt := range tests {
		w, s := New(tt.weak), New(tt.strg)
		if got := Covers(w, s, conf); got != tt.want {
			t.Errorf("Covers(class %q, class %q) = %v, want %v", tt.weak, tt.strg, got, tt.want)
		}
	}
}

func TestCoversEventExample3(t *testing.T) {
	e1, _ := paperEvents()
	f := paperFilter()
	// e'1 of Example 3 drops the volume attribute.
	e1p := event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 10.0).Build()
	if !CoversEvent(f, e1p, e1, nil) {
		t.Error("e'1 should cover e1 for f")
	}
	// With an existence filter on volume, e'1 no longer covers e1.
	fVol := New("", C("volume", OpExists, event.Value{}))
	if CoversEvent(fVol, e1p, e1, nil) {
		t.Error("e'1 must not cover e1 for (volume, ∃)")
	}
}

func TestCollapse(t *testing.T) {
	f1 := MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10.0`)
	g1 := MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 11.0`)
	h := MustParseFilter(`class = "Auction" && product = "Vehicle"`)
	out := Collapse([]*Filter{f1, g1, h}, nil)
	if len(out) != 2 {
		t.Fatalf("Collapse kept %d filters, want 2: %v", len(out), out)
	}
	if !out[0].Equal(g1) || !out[1].Equal(h) {
		t.Errorf("Collapse kept %v", out)
	}
	// Equivalent filters: exactly one survives.
	a := MustParseFilter(`x = 1`)
	b := MustParseFilter(`x = 1`)
	out2 := Collapse([]*Filter{a, b}, nil)
	if len(out2) != 1 {
		t.Fatalf("Collapse of equivalent filters kept %d", len(out2))
	}
	if got := Collapse(nil, nil); len(got) != 0 {
		t.Errorf("Collapse(nil) = %v", got)
	}
}

// --- property-based validation of Covers against direct evaluation ---

// randomValue draws from a deliberately small universe so random filters
// and events collide often.
func randomValue(rng *rand.Rand) event.Value {
	switch rng.IntN(3) {
	case 0:
		return event.Int(int64(rng.IntN(8)))
	case 1:
		return event.Float(float64(rng.IntN(16)) / 2)
	default:
		return event.String(string(rune('a' + rng.IntN(4))))
	}
}

var propAttrs = []string{"a", "b", "c"}

func randomFilter(rng *rand.Rand) *Filter {
	f := &Filter{}
	n := 1 + rng.IntN(3)
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAny, OpExists, OpPrefix}
	for range n {
		op := ops[rng.IntN(len(ops))]
		c := Constraint{Attr: propAttrs[rng.IntN(len(propAttrs))], Op: op}
		if op.NeedsOperand() {
			if op == OpPrefix {
				c.Operand = event.String(string(rune('a' + rng.IntN(4))))
			} else {
				c.Operand = randomValue(rng)
			}
		}
		f.Constraints = append(f.Constraints, c)
	}
	return f
}

func randomEvent(rng *rand.Rand) *event.Event {
	b := event.NewBuilder("T")
	for _, a := range propAttrs {
		if rng.IntN(4) > 0 { // attribute present with prob 3/4
			b.Val(a, randomValue(rng))
		}
	}
	return b.Build()
}

// TestCoversSoundnessProperty: whenever Covers claims w covers s, no event
// may match s without matching w.
func TestCoversSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const trials = 2000
	claimed := 0
	for i := 0; i < trials; i++ {
		w, s := randomFilter(rng), randomFilter(rng)
		if !Covers(w, s, nil) {
			continue
		}
		claimed++
		for j := 0; j < 200; j++ {
			e := randomEvent(rng)
			if s.Matches(e, nil) && !w.Matches(e, nil) {
				t.Fatalf("unsound covering claim:\n  weak  %s\n  strong %s\n  event %s",
					w, s, e)
			}
		}
	}
	if claimed == 0 {
		t.Fatal("property test never exercised a positive covering claim")
	}
	t.Logf("verified %d positive covering claims", claimed)
}

// TestCoversReflexiveProperty: every satisfiable random filter covers
// itself.
func TestCoversReflexiveProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		f := randomFilter(rng)
		if !f.Satisfiable() {
			continue
		}
		if !Covers(f, f, nil) {
			// Reflexivity may fail only for unsupported domains; our
			// generator produces none, so this is a real failure.
			t.Fatalf("filter does not cover itself: %s", f)
		}
	}
}

// TestCoversTransitiveProperty: covering is transitive on the claims the
// checker makes.
func TestCoversTransitiveProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	checked := 0
	for i := 0; i < 20000 && checked < 200; i++ {
		a, b, c := randomFilter(rng), randomFilter(rng), randomFilter(rng)
		if Covers(a, b, nil) && Covers(b, c, nil) {
			checked++
			// Transitivity must hold semantically: verify via sampling
			// rather than requiring the conservative checker to prove it.
			for j := 0; j < 100; j++ {
				e := randomEvent(rng)
				if c.Matches(e, nil) && !a.Matches(e, nil) {
					t.Fatalf("transitivity violated semantically: a=%s b=%s c=%s e=%s", a, b, c, e)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no transitive chains found")
	}
}

func TestCollapsePreservesUnionProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 300; i++ {
		var fs []*Filter
		n := 2 + rng.IntN(4)
		for range n {
			fs = append(fs, randomFilter(rng))
		}
		collapsed := Collapse(fs, nil)
		if len(collapsed) > len(fs) {
			t.Fatal("collapse grew the set")
		}
		for j := 0; j < 100; j++ {
			e := randomEvent(rng)
			if Subscription(fs).Matches(e, nil) != Subscription(collapsed).Matches(e, nil) {
				t.Fatalf("collapse changed semantics:\n  in  %v\n  out %v\n  e %s", fs, collapsed, e)
			}
		}
	}
}

// coversByDomains is Definition 2 straight from the per-attribute
// domains, with none of Strong's early rejections: the reference the
// prepared path must agree with.
func coversByDomains(weak, strong *Filter) bool {
	if !strong.Satisfiable() {
		return true
	}
	if weak.Class != "" && weak.Class != RootType && !(ExactTypes{}).Conforms(strong.Class, weak.Class) {
		return false
	}
	for _, attr := range weak.Attrs() {
		if len(strong.ConstraintsOn(attr)) == 0 {
			return false
		}
		var wd, sd domain
		wd.build(weak.Constraints, attr)
		sd.build(strong.Constraints, attr)
		if !wd.superset(&sd) {
			return false
		}
	}
	return true
}

// TestStrongAgreesWithDomainsProperty: one prepared strong side, reused
// across many weak filters, answers exactly as the unshortened check —
// the early rejections (missing attribute, unequal equalities) never
// change a verdict, contradictory and class-constrained filters included.
func TestStrongAgreesWithDomainsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	classes := []string{"", "T", "U", RootType}
	positives := 0
	for i := 0; i < 400; i++ {
		s := randomFilter(rng)
		s.Class = classes[rng.IntN(len(classes))]
		strong := NewStrong(s, nil)
		for j := 0; j < 50; j++ {
			w := randomFilter(rng)
			if j%2 == 0 { // share constraints, so equalities meet often
				w.Constraints = append(w.Constraints[:1], s.Constraints[:1+rng.IntN(len(s.Constraints))]...)
			}
			w.Class = classes[rng.IntN(len(classes))]
			want := coversByDomains(w, s)
			if got := strong.CoveredBy(w); got != want {
				t.Fatalf("CoveredBy = %v, domains say %v:\n  weak   %s\n  strong %s", got, want, w, s)
			}
			if want {
				positives++
			}
		}
	}
	if positives == 0 {
		t.Fatal("property never exercised a positive claim")
	}
}

// TestCoveredByAllocs pins the covering check's allocation profile: the
// early rejects that decide most comparisons of a scan allocate nothing,
// nor does a full check over equalities and intervals, and preparing
// the strong side builds no attribute set — the Strong and its domain
// slice are its only allocations.
func TestCoveredByAllocs(t *testing.T) {
	strong := NewStrong(MustParseFilter(`class = "T" && x = 1 && y < 5 && s prefix "ab"`), nil)
	for _, tt := range []struct {
		name string
		weak string
		want bool
	}{
		{"class mismatch", `class = "U" && x = 1`, false},
		{"missing attribute", `class = "T" && z = 1`, false},
		{"unequal equalities", `class = "T" && x = 2 && y < 9`, false},
		{"equalities and intervals", `class = "T" && x = 1 && y <= 5`, true},
	} {
		weak := MustParseFilter(tt.weak)
		if got := strong.CoveredBy(weak); got != tt.want {
			t.Fatalf("%s: CoveredBy = %v, want %v", tt.name, got, tt.want)
		}
		if n := testing.AllocsPerRun(100, func() { strong.CoveredBy(weak) }); n != 0 {
			t.Errorf("%s: %v allocations per check, want 0", tt.name, n)
		}
	}
	f := MustParseFilter(`class = "T" && a = 1 && b < 5 && b > 1 && c >= 2 && d exists`)
	if n := testing.AllocsPerRun(100, func() { NewStrong(f, nil) }); n > 2 {
		t.Errorf("NewStrong: %v allocations, want at most 2 (Strong + domains)", n)
	}
}
