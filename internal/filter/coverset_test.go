package filter

import (
	"math"
	"math/rand/v2"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/typing"
)

// coveredByAnyLinear is the reference CoverSet must agree with:
// Definition 2 asked of every stored filter.
func coveredByAnyLinear(weak []*Filter, f *Filter, conf Conformance) bool {
	for _, g := range weak {
		if Covers(g, f, conf) {
			return true
		}
	}
	return false
}

// The covering-index generator draws from value, prefix and class pools
// built to meet every anchoring edge: numbers equal across int and float,
// ±0, NaN, booleans, strings that are prefixes of one another (the empty
// one included), and a class hierarchy with its root.
var (
	coverValues = []event.Value{
		event.Int(0), event.Float(math.Copysign(0, -1)), event.Int(2), event.Float(2),
		event.Float(2.5), event.Float(math.NaN()), event.Bool(true),
		event.String(""), event.String("a"), event.String("ab"), event.String("abc"), event.String("b"),
	}
	coverPrefixes = []string{"", "a", "ab", "abc", "b"}
	coverClasses  = []string{"", RootType, "A", "B", "C"}
	coverOps      = []Op{OpEq, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAny, OpExists, OpPrefix, OpPrefix, OpSuffix, OpContains}
)

// coverRegistry: B below A, A and C below the root.
func coverRegistry() *typing.Registry {
	reg := typing.NewRegistry()
	reg.MustRegister("A", "")
	reg.MustRegister("B", "A")
	reg.MustRegister("C", "")
	return reg
}

// genCoverFilter builds a filter from the choices pick(n) ∈ [0, n)
// returns, so the property test (a PRNG) and the fuzzer (its bytes) share
// one generator. One extra op draw emits a degenerate interval
// (a >= v && a <= v).
func genCoverFilter(pick func(n int) int) *Filter {
	f := &Filter{Class: coverClasses[pick(len(coverClasses))]}
	for n := pick(4); n > 0; n-- {
		attr := propAttrs[pick(len(propAttrs))]
		k := pick(len(coverOps) + 1)
		if k == len(coverOps) {
			v := coverValues[pick(len(coverValues))]
			f.Constraints = append(f.Constraints, C(attr, OpGe, v), C(attr, OpLe, v))
			continue
		}
		c := Constraint{Attr: attr, Op: coverOps[k]}
		switch {
		case c.Op == OpPrefix:
			c.Operand = event.String(coverPrefixes[pick(len(coverPrefixes))])
		case c.Op.NeedsOperand():
			c.Operand = coverValues[pick(len(coverValues))]
		}
		f.Constraints = append(f.Constraints, c)
	}
	return f
}

// genCoverQuery draws a strong filter: half the time a stored filter with
// constraints added (so covers are common), otherwise a fresh one.
func genCoverQuery(pick func(n int) int, stored []*Filter) *Filter {
	if len(stored) == 0 || pick(2) == 0 {
		return genCoverFilter(pick)
	}
	f := stored[pick(len(stored))].Clone()
	f.Constraints = append(f.Constraints, genCoverFilter(pick).Constraints...)
	if pick(3) == 0 {
		f.Class = coverClasses[pick(len(coverClasses))]
	}
	return f
}

// checkCoverSet grows a CoverSet one filter at a time and, before each
// insertion, asks it queries under both conformances, failing on any
// verdict the linear reference does not share. It returns the positive
// verdicts seen.
func checkCoverSet(t *testing.T, pick func(n int) int, filters, queries int) int {
	t.Helper()
	confs := []Conformance{nil, coverRegistry()}
	var set CoverSet
	positives := 0
	for range filters {
		for range queries {
			q := genCoverQuery(pick, set.Filters())
			for _, conf := range confs {
				want := coveredByAnyLinear(set.Filters(), q, conf)
				got, checks := set.CoveredByAny(q, conf)
				if got != want {
					t.Fatalf("CoveredByAny(%s) = %v, linear %v; stored %v", q, got, want, set.Filters())
				}
				if checks > set.Len() {
					t.Fatalf("%d checks over %d stored filters", checks, set.Len())
				}
				if want {
					positives++
				}
			}
		}
		set.Add(genCoverFilter(pick))
	}
	return positives
}

// TestCoverSetAgreesWithLinearProperty: the anchored index answers every
// query as asking each stored filter would — int/float-equal operands,
// ±0, NaN, booleans, degenerate intervals, prefixes of equalities and of
// prefixes, the empty prefix, unsatisfiable queries, and classes under
// exact names and under a registry with RootType.
func TestCoverSetAgreesWithLinearProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 23))
	positives := 0
	for range 200 {
		positives += checkCoverSet(t, rng.IntN, 1+rng.IntN(40), 4)
	}
	if positives < 1000 {
		t.Fatalf("only %d positive verdicts: the generator misses covers", positives)
	}
}

// TestCoverSetAnchorEdges pins the cases where an anchor key must equate
// values that compare equal and must not drop a cover.
func TestCoverSetAnchorEdges(t *testing.T) {
	negZero := event.Float(math.Copysign(0, -1))
	tests := []struct {
		name         string
		weak, strong *Filter
	}{
		{"int weak, float strong", New("", C("x", OpEq, event.Int(5))), New("", C("x", OpEq, event.Float(5)))},
		{"float weak, int strong", New("", C("x", OpEq, event.Float(5))), New("", C("x", OpEq, event.Int(5)))},
		{"-0 weak, +0 strong", New("", C("x", OpEq, negZero)), New("", C("x", OpEq, event.Int(0)))},
		{"+0 weak, -0 strong", New("", C("x", OpEq, event.Float(0))), New("", C("x", OpEq, negZero))},
		{"eq weak, degenerate strong", New("", C("x", OpEq, event.Int(3))),
			New("", C("x", OpGe, event.Float(3)), C("x", OpLe, event.Int(3)))},
		{"bool", New("", C("b", OpEq, event.Bool(true))), New("", C("b", OpEq, event.Bool(true)), C("x", OpGt, event.Int(1)))},
		{"prefix of eq", New("", C("s", OpPrefix, event.String("ab"))), New("", C("s", OpEq, event.String("abc")))},
		{"prefix of prefix", New("", C("s", OpPrefix, event.String("ab"))), New("", C("s", OpPrefix, event.String("abc")))},
		{"empty prefix", New("", C("s", OpPrefix, event.String(""))), New("", C("s", OpPrefix, event.String("z")))},
		{"equal prefix", New("", C("s", OpPrefix, event.String("ab"))), New("", C("s", OpPrefix, event.String("ab")))},
		{"unanchored", New("", C("x", OpLt, event.Int(9))), New("", C("x", OpEq, event.Int(1)))},
		{"unsatisfiable strong", New("", C("y", OpEq, event.Int(1))), New("", C("x", OpEq, event.Int(1)), C("x", OpEq, event.Int(2)))},
		{"NaN elsewhere", New("", C("n", OpNe, event.Float(math.NaN())), C("x", OpEq, event.Int(1))), New("", C("n", OpEq, event.Int(4)), C("x", OpEq, event.Int(1)))},
		{"root class", New(RootType, C("x", OpEq, event.Int(1))), New("B", C("x", OpEq, event.Int(1)))},
		{"supertype class", New("A", C("x", OpEq, event.Int(1))), New("B", C("x", OpEq, event.Int(1)))},
	}
	reg := coverRegistry()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !Covers(tt.weak, tt.strong, reg) {
				t.Fatalf("case is not a cover: %s / %s", tt.weak, tt.strong)
			}
			// Decoys on other anchors take the set past unanchoredMax, so
			// the cover must be found through its anchor.
			var set CoverSet
			for i := range unanchoredMax {
				set.Add(New("", C("x", OpEq, event.Int(int64(100+i)))))
			}
			set.Add(tt.weak)
			if got, _ := set.CoveredByAny(tt.strong, reg); !got {
				t.Errorf("CoverSet missed %s covering %s", tt.weak, tt.strong)
			}
		})
	}
}

// TestCoverSetSkipsForeignAnchors: a query pinned to one value runs the
// exact check only on its own anchor's filters and the unanchored ones.
func TestCoverSetSkipsForeignAnchors(t *testing.T) {
	var set CoverSet
	for i := range 1000 {
		set.Add(New("T", C("x", OpEq, event.Int(int64(i))), C("y", OpLt, event.Int(10))))
	}
	set.Add(New("T", C("y", OpLt, event.Int(1)))) // unanchored
	covered, checks := set.CoveredByAny(New("T", C("x", OpEq, event.Int(7)), C("y", OpLt, event.Int(5))), nil)
	if !covered || checks != 2 {
		t.Fatalf("covered=%v after %d checks, want true after 2 (unanchored + x=7)", covered, checks)
	}
	covered, checks = set.CoveredByAny(New("T", C("x", OpEq, event.Int(5000)), C("y", OpLt, event.Int(5))), nil)
	if covered || checks != 1 {
		t.Fatalf("covered=%v after %d checks, want false after 1 (unanchored only)", covered, checks)
	}
}

// FuzzCoverSet drives the covering-index generator from the fuzzer's
// bytes: any set and any query must get the linear reference's verdict.
func FuzzCoverSet(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 2, 1, 0, 0, 7, 4, 2, 1, 9, 3, 0, 13, 5, 2, 2, 9, 1})
	f.Add([]byte("covering anchors: eq, prefix, loose"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		checkCoverSet(t, pick, 1+pick(16), 3)
	})
}
