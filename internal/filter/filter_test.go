package filter

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"eventsys/internal/event"
)

// e1, e2 are the stock-quote events of Example 1.
func paperEvents() (*event.Event, *event.Event) {
	e1 := event.NewBuilder("Stock").Str("symbol", "Foo").Float("price", 10.0).Int("volume", 32300).Build()
	e2 := event.NewBuilder("Stock").Str("symbol", "Bar").Float("price", 15.0).Int("volume", 25600).Build()
	return e1, e2
}

// paperFilter is f of Example 1: (symbol,"Foo",=) (price,5.0,>).
func paperFilter() *Filter {
	return New("",
		C("symbol", OpEq, event.String("Foo")),
		C("price", OpGt, event.Float(5.0)),
	)
}

func TestExample1(t *testing.T) {
	e1, e2 := paperEvents()
	f := paperFilter()
	if !f.Matches(e1, nil) {
		t.Error("f(e1) = false, paper says true")
	}
	if f.Matches(e2, nil) {
		t.Error("f(e2) = true, paper says false")
	}
}

func TestConstraintMatrix(t *testing.T) {
	e := event.NewBuilder("T").
		Str("s", "hello world").
		Int("i", 10).
		Float("f", 2.5).
		Bool("b", true).
		Build()
	tests := []struct {
		c    Constraint
		want bool
	}{
		{C("s", OpEq, event.String("hello world")), true},
		{C("s", OpEq, event.String("nope")), false},
		{C("s", OpNe, event.String("nope")), true},
		{C("s", OpNe, event.String("hello world")), false},
		{C("s", OpPrefix, event.String("hello")), true},
		{C("s", OpPrefix, event.String("world")), false},
		{C("s", OpSuffix, event.String("world")), true},
		{C("s", OpSuffix, event.String("hello")), false},
		{C("s", OpContains, event.String("lo wo")), true},
		{C("s", OpContains, event.String("xyz")), false},
		{C("s", OpLt, event.String("zzz")), true},
		{C("s", OpGt, event.String("zzz")), false},
		{C("i", OpEq, event.Int(10)), true},
		{C("i", OpEq, event.Float(10)), true},
		{C("i", OpLt, event.Int(11)), true},
		{C("i", OpLt, event.Int(10)), false},
		{C("i", OpLe, event.Int(10)), true},
		{C("i", OpGt, event.Int(9)), true},
		{C("i", OpGe, event.Int(10)), true},
		{C("i", OpGe, event.Int(11)), false},
		{C("f", OpGt, event.Float(2.0)), true},
		{C("f", OpLt, event.Int(3)), true},
		{C("b", OpEq, event.Bool(true)), true},
		{C("b", OpNe, event.Bool(false)), true},
		// Cross-kind comparisons never match.
		{C("s", OpEq, event.Int(10)), false},
		{C("i", OpEq, event.String("10")), false},
		{C("i", OpNe, event.String("10")), true}, // Ne is pure negated equality
		{C("i", OpPrefix, event.String("1")), false},
		// Missing attribute never matches, even for exists.
		{C("missing", OpExists, event.Value{}), false},
		{C("missing", OpAny, event.Value{}), false},
		// Present attribute satisfies exists and wildcard.
		{C("s", OpExists, event.Value{}), true},
		{Wild("i"), true},
	}
	for _, tt := range tests {
		t.Run(tt.c.String(), func(t *testing.T) {
			got := (&Filter{Constraints: []Constraint{tt.c}}).Matches(e, nil)
			if got != tt.want {
				t.Errorf("match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClassMatching(t *testing.T) {
	e := event.NewBuilder("Stock").Str("symbol", "Foo").Build()
	conf := fakeConformance{"Stock": {"Quote", RootType}}
	tests := []struct {
		class string
		want  bool
	}{
		{"", true},
		{RootType, true},
		{"Stock", true},
		{"Quote", true}, // supertype via conformance
		{"Auction", false},
	}
	for _, tt := range tests {
		f := New(tt.class)
		if got := f.Matches(e, conf); got != tt.want {
			t.Errorf("class %q match = %v, want %v", tt.class, got, tt.want)
		}
	}
	// Without conformance, exact matching applies.
	if New("Quote").Matches(e, nil) {
		t.Error("exact matching should reject supertype")
	}
	if !New("Stock").Matches(e, nil) {
		t.Error("exact matching should accept same type")
	}
}

// fakeConformance maps a type to its proper supertypes.
type fakeConformance map[string][]string

func (f fakeConformance) Conforms(sub, super string) bool {
	if sub == super || super == RootType {
		return true
	}
	for _, s := range f[sub] {
		if s == super {
			return true
		}
	}
	return false
}

func TestZeroFilterMatchesAll(t *testing.T) {
	e1, e2 := paperEvents()
	var f Filter
	if !f.Matches(e1, nil) || !f.Matches(e2, nil) {
		t.Error("zero filter must match everything (f_T)")
	}
	var nilF *Filter
	if !nilF.Matches(e1, nil) {
		t.Error("nil filter must match everything")
	}
}

func TestWildcardAttrs(t *testing.T) {
	f := New("Stock",
		Wild("symbol"),
		C("price", OpLt, event.Float(100)),
		Wild("volume"),
	)
	got := f.WildcardAttrs()
	if len(got) != 2 || got[0] != "symbol" || got[1] != "volume" {
		t.Fatalf("WildcardAttrs = %v", got)
	}
	if !f.HasWildcards() {
		t.Error("HasWildcards = false")
	}
	// An attribute with both a wildcard and a real constraint is not wild.
	g := New("", Wild("price"), C("price", OpLt, event.Float(1)))
	if len(g.WildcardAttrs()) != 0 {
		t.Errorf("mixed constraints should not be wildcard: %v", g.WildcardAttrs())
	}
}

func TestStandardize(t *testing.T) {
	schema := SchemaOf("year", "conference", "author", "title")
	f := New("Biblio", C("author", OpEq, event.String("Knuth")))
	std := f.Standardize(schema)
	attrs := std.Attrs()
	want := []string{"year", "conference", "author", "title"}
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatalf("standard attrs = %v, want %v", attrs, want)
		}
	}
	if !std.IsStandard(schema) {
		t.Error("standardized filter not recognized as standard")
	}
	if f.IsStandard(schema) {
		t.Error("partial filter should not be standard")
	}
	wild := std.WildcardAttrs()
	if len(wild) != 3 {
		t.Errorf("wildcards = %v, want year/conference/title", wild)
	}
	// Standardization preserves matching on full-schema events.
	e := event.NewBuilder("Biblio").
		Int("year", 2002).Str("conference", "ICDCS").Str("author", "Knuth").Str("title", "X").Build()
	if f.Matches(e, nil) != std.Matches(e, nil) {
		t.Error("standardization changed matching")
	}
	// Off-schema constraints survive standardization.
	g := New("", C("extra", OpEq, event.Int(1)), C("year", OpEq, event.Int(2002)))
	stdG := g.Standardize(schema)
	if len(stdG.ConstraintsOn("extra")) != 1 {
		t.Error("off-schema constraint dropped")
	}
}

func TestSubscriptionDisjunction(t *testing.T) {
	e1, e2 := paperEvents()
	sub := Subscription{
		New("", C("symbol", OpEq, event.String("Bar"))),
		New("", C("price", OpLt, event.Float(11))),
	}
	if !sub.Matches(e1, nil) { // price 10 < 11
		t.Error("disjunction should match e1 via second filter")
	}
	if !sub.Matches(e2, nil) { // symbol Bar
		t.Error("disjunction should match e2 via first filter")
	}
	empty := Subscription{}
	if empty.Matches(e1, nil) {
		t.Error("empty subscription matches nothing")
	}
}

func TestFilterEqualAndClone(t *testing.T) {
	f := paperFilter()
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone not equal")
	}
	g.Constraints[1].Operand = event.Float(6)
	if f.Equal(g) {
		t.Error("mutated clone still equal")
	}
	if v := f.Constraints[1].Operand; !v.Equal(event.Float(5)) {
		t.Errorf("original mutated: %v", v)
	}
	// Operand kind matters for equality (Int(5) vs Float(5)).
	a := New("", C("x", OpEq, event.Int(5)))
	b := New("", C("x", OpEq, event.Float(5)))
	if a.Equal(b) {
		t.Error("Int(5) and Float(5) operands should not be Equal filters")
	}
}

func TestFilterString(t *testing.T) {
	f := New("Stock", C("symbol", OpEq, event.String("Foo")), C("price", OpGt, event.Float(5)))
	want := `(class, "Stock", =) (symbol, "Foo", =) (price, 5, >)`
	if got := f.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
	if got := (&Filter{}).String(); got != "(f_T)" {
		t.Errorf("zero filter String = %s", got)
	}
	if got := Wild("x").String(); got != "(x, ALL, =)" {
		t.Errorf("wildcard String = %s", got)
	}
}

func TestSatisfiable(t *testing.T) {
	tests := []struct {
		name string
		f    *Filter
		want bool
	}{
		{"plain", paperFilter(), true},
		{"empty", &Filter{}, true},
		{"eq conflict", New("", C("x", OpEq, event.Int(1)), C("x", OpEq, event.Int(2))), false},
		{"interval empty", New("", C("x", OpGt, event.Int(5)), C("x", OpLt, event.Int(5))), false},
		{"interval point ok", New("", C("x", OpGe, event.Int(5)), C("x", OpLe, event.Int(5))), true},
		{"eq outside interval", New("", C("x", OpEq, event.Int(9)), C("x", OpLt, event.Int(5))), false},
		{"eq excluded", New("", C("x", OpEq, event.Int(9)), C("x", OpNe, event.Int(9))), false},
		{"family conflict", New("", C("x", OpEq, event.Int(9)), C("x", OpEq, event.String("a"))), false},
		{"pattern on number", New("", C("x", OpLt, event.Int(5)), C("x", OpPrefix, event.String("a"))), false},
		{"eq fails prefix", New("", C("x", OpEq, event.String("b")), C("x", OpPrefix, event.String("a"))), false},
		{"eq meets prefix", New("", C("x", OpEq, event.String("ab")), C("x", OpPrefix, event.String("a"))), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Satisfiable(); got != tt.want {
				t.Errorf("Satisfiable = %v, want %v", got, tt.want)
			}
		})
	}
}

// fmtString is the fmt-based rendering Filter.String had before it was
// assembled with strconv appends; keys persisted by routing tables and
// digests depend on the text staying byte for byte the same.
func fmtString(f *Filter) string {
	var b strings.Builder
	if f.Class != "" {
		fmt.Fprintf(&b, "(%s, %q, =)", event.TypeAttr, f.Class)
	}
	for _, c := range f.Constraints {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case c.Op == OpAny:
			fmt.Fprintf(&b, "(%s, ALL, =)", c.Attr)
		case !c.Op.NeedsOperand():
			fmt.Fprintf(&b, "(%s, ∃)", c.Attr)
		default:
			fmt.Fprintf(&b, "(%s, %s, %s)", c.Attr, fmtValue(c.Operand), c.Op)
		}
	}
	if b.Len() == 0 {
		return "(f_T)"
	}
	return b.String()
}

func fmtValue(v event.Value) string {
	switch v.Kind() {
	case event.KindString:
		return strconv.Quote(v.Str())
	case event.KindInt:
		return strconv.FormatInt(v.IntVal(), 10)
	case event.KindFloat:
		return strconv.FormatFloat(v.Num(), 'g', -1, 64)
	case event.KindBool:
		return strconv.FormatBool(v.BoolVal())
	}
	return "<invalid>"
}

func TestFilterStringByteIdentical(t *testing.T) {
	texts := []string{"", "Stock", `q"uo\te`, "日本", "é\n\t", "\xff\xfe", "a b", strings.Repeat("long", 80)}
	values := []event.Value{
		{}, event.Int(0), event.Int(-7), event.Int(1 << 53), event.Int(math.MaxInt64), event.Int(math.MinInt64),
		event.Float(math.Copysign(0, -1)), event.Float(2.5), event.Float(1e300), event.Float(-1e-300),
		event.Float(math.Inf(1)), event.Float(math.Inf(-1)), event.Float(math.NaN()),
		event.Bool(true), event.Bool(false),
	}
	for _, s := range texts {
		values = append(values, event.String(s))
	}
	rng := rand.New(rand.NewPCG(9, 10))
	check := func(f *Filter) {
		t.Helper()
		if got, want := f.String(), fmtString(f); got != want {
			t.Fatalf("String() = %q, fmt rendering %q", got, want)
		}
	}
	check(&Filter{})
	for range 3000 {
		f := &Filter{}
		if rng.IntN(3) > 0 {
			f.Class = texts[rng.IntN(len(texts))]
		}
		for n := rng.IntN(5); n > 0; n-- {
			f.Constraints = append(f.Constraints, Constraint{
				Attr:    texts[rng.IntN(len(texts))],
				Op:      Op(rng.IntN(int(OpAny) + 2)), // every operator, OpInvalid and one past
				Operand: values[rng.IntN(len(values))],
			})
		}
		check(f)
	}
}

// TestFilterKeyOneAllocation: a key is rendered in place and copied out
// once, exactly sized — routing tables keep one per stored filter.
func TestFilterKeyOneAllocation(t *testing.T) {
	f := MustParseFilter(`class = "Alert" && metric = "metric-00042" && value >= 99.925 && topic any && note any`)
	if n := testing.AllocsPerRun(100, func() { _ = f.Key() }); n != 1 {
		t.Errorf("Key: %v allocations, want 1", n)
	}
}
