package index

import (
	"fmt"
	"math"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// FuzzEngineEquivalence drives the indexed engine and the naive table
// with the same byte-derived script of inserts, removes, whole-ID
// removes and match probes; every probe must yield identical ID sets, and the naive result
// must agree with direct filter evaluation. The script bytes decode to a
// small op stream, so the fuzzer can reach delta merges, tombstone
// purges, NaN values and prefix/suffix collisions.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x90, 0x17, 0x30, 0x88, 0x21, 0xfe, 0x05})
	f.Add([]byte("insert-remove-match-churn-seed"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x80, 0x7f, 0x33, 0xcc, 0x55, 0xaa, 0x12, 0x34})
	// Standard-form shapes, one script each.
	// w = 4 && x >= 2 && y ALL: matched with y, without y, after Remove.
	f.Add([]byte{
		0x00, 0x01, 0x80, 0x01, 0x00, 0x04, 0x03, 0x01, 0x02, 0x00, 0x02, 0x00,
		0x06, 0x00, 0x03, 0x00, 0x04, 0x01, 0x06, 0x02, 0x08,
		0x06, 0x00, 0x02, 0x00, 0x04, 0x01, 0x06,
		0x04, 0x00,
		0x06, 0x00, 0x03, 0x00, 0x04, 0x01, 0x06, 0x02, 0x08,
	})
	// x >= 2 && class ALL && exists(w) && y ALL (one threshold inside
	// wildcards, presence on the class attribute), and w = 4 && v ALL &&
	// x < 10 (a wildcard no event satisfies).
	f.Add([]byte{
		0x00, 0x01, 0x81, 0x03, 0x01, 0x02, 0x00, 0xf0, 0x02, 0x00, 0x00, 0x02, 0x01,
		0x00, 0x01, 0x80, 0x01, 0x00, 0x04, 0x00, 0xe0, 0x07, 0x01, 0x0a, 0x02,
		0x06, 0x00, 0x03, 0x00, 0x04, 0x01, 0x06, 0x02, 0x08,
		0x06, 0x00, 0x02, 0x01, 0x06, 0x02, 0x08,
	})
	// w ALL && exists(x) && class ALL: presence only, stays counted.
	f.Add([]byte{
		0x00, 0x01, 0x80, 0x00, 0x00, 0x02, 0x01, 0x04, 0xf0, 0x03,
		0x06, 0x00, 0x02, 0x00, 0x04, 0x01, 0x06,
		0x06, 0x00, 0x01, 0x00, 0x04,
		0x05, 0x03,
		0x06, 0x00, 0x02, 0x00, 0x04, 0x01, 0x06,
	})
	// Six constraints, presence repeated on a selectively constrained
	// attribute, against an event that carries w twice.
	f.Add([]byte{
		0x00, 0x01, 0x83, 0x01, 0x00, 0x04, 0x03, 0x01, 0x02, 0x00, 0x02,
		0x02, 0x03, 0x04, 0x00, 0x05, 0x03, 0x01, 0x01, 0x00, 0x04,
		0x06, 0x00, 0x83, 0x00, 0x04, 0x00, 0x06, 0x01, 0x06, 0x02, 0x08, 0x03, 0x01, 0x02, 0x00, 0x01,
		0x06, 0x00, 0x83, 0x00, 0x06, 0x00, 0x04, 0x01, 0x06, 0x02, 0x08, 0x03, 0x01, 0x02, 0x00, 0x01,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := fuzzScript{data: data}
		naive := NewNaiveTable(nil)
		indexed := NewIndexedTable(nil)
		type assoc struct {
			f  *filter.Filter
			id string
		}
		var live []assoc
		for step := 0; !fz.done() && step < 200; step++ {
			switch fz.byte() % 8 {
			case 0, 1, 2, 3:
				flt := fz.filter()
				id := fmt.Sprintf("id%d", fz.byte()%8)
				naive.Insert(flt, id)
				indexed.Insert(flt, id)
				live = append(live, assoc{flt, id})
			case 4:
				if len(live) == 0 {
					continue
				}
				i := int(fz.byte()) % len(live)
				naive.Remove(live[i].f, live[i].id)
				indexed.Remove(live[i].f, live[i].id)
				live = append(live[:i], live[i+1:]...)
			case 5:
				id := fmt.Sprintf("id%d", fz.byte()%8)
				naive.RemoveID(id)
				indexed.RemoveID(id)
				kept := live[:0]
				for _, a := range live {
					if a.id != id {
						kept = append(kept, a)
					}
				}
				live = kept
			default:
				e := fz.event()
				nids, nm := naive.Match(e)
				want := 0
				for _, ff := range naive.Filters() {
					if ff.Matches(e, nil) {
						want++
					}
				}
				if nm != want {
					t.Fatalf("step %d: naive matched=%d, direct evaluation=%d on %s", step, nm, want, e)
				}
				ids, _ := indexed.Match(e)
				if fmt.Sprint(ids) != fmt.Sprint(nids) {
					t.Fatalf("step %d: indexed diverges on %s:\n naive %v\n indexed %v", step, e, nids, ids)
				}
				if indexed.Len() != naive.Len() {
					t.Fatalf("step %d: Len diverged naive=%d indexed=%d", step, naive.Len(), indexed.Len())
				}
			}
		}
	})
}

// fuzzScript decodes fuzz bytes into filters, events and choices.
type fuzzScript struct {
	data []byte
	pos  int
}

func (f *fuzzScript) done() bool { return f.pos >= len(f.data) }

func (f *fuzzScript) byte() byte {
	if f.done() {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

// value derives an event value; a few byte codes map to adversarial
// numerics (NaN, ±0, infinities), the rest to small ints and strings.
func (f *fuzzScript) value() event.Value {
	b := f.byte()
	switch b {
	case 0xff:
		return event.Float(math.NaN())
	case 0xfe:
		return event.Float(math.Copysign(0, -1))
	case 0xfd:
		return event.Float(math.Inf(1))
	case 0xfc:
		return event.Float(math.Inf(-1))
	case 0xfb:
		return event.Bool(f.byte()%2 == 0)
	}
	if b%2 == 0 {
		return event.Int(int64(b % 16))
	}
	return event.String(f.str())
}

// str derives a short string over a 3-letter alphabet (length 0-3), so
// prefix/suffix/contains hits and misses are both common.
func (f *fuzzScript) str() string {
	n := int(f.byte() % 4)
	s := make([]byte, n)
	for i := range s {
		s[i] = 'a' + f.byte()%3
	}
	return string(s)
}

var fuzzOps = []filter.Op{
	filter.OpEq, filter.OpNe, filter.OpLt, filter.OpLe, filter.OpGt,
	filter.OpGe, filter.OpPrefix, filter.OpSuffix, filter.OpContains,
	filter.OpExists, filter.OpAny,
}

// fuzzLongOps draws the operators of the long (3–6 constraint) filters:
// about half presence, the rest mostly access predicates and thresholds,
// so standard-form shapes — wildcards around a pair, around one
// threshold, around scan residue — are common instead of a fluke.
var fuzzLongOps = []filter.Op{
	filter.OpAny, filter.OpEq, filter.OpExists, filter.OpGe, filter.OpAny,
	filter.OpPrefix, filter.OpAny, filter.OpLt, filter.OpExists, filter.OpSuffix,
	filter.OpAny, filter.OpGt, filter.OpLe, filter.OpNe, filter.OpContains,
}

// attr derives a constrained attribute: mostly w–z, which events may or
// may not carry; high bytes select "v", which no event carries, and the
// synthetic class attribute, which every event does.
func (f *fuzzScript) attr() string {
	switch b := f.byte(); {
	case b >= 0xf0:
		return event.TypeAttr
	case b >= 0xe0:
		return "v"
	default:
		return string(rune('w' + b%4))
	}
}

func (f *fuzzScript) filter() *filter.Filter {
	flt := &filter.Filter{}
	if f.byte()%2 == 0 {
		flt.Class = string(rune('A' + f.byte()%2))
	}
	// The count byte's high bit selects the long form.
	b := f.byte()
	n, ops := 1+int(b%3), fuzzOps
	if b >= 0x80 {
		n, ops = 3+int(b%4), fuzzLongOps
	}
	for range n {
		op := ops[int(f.byte())%len(ops)]
		c := filter.Constraint{Attr: f.attr(), Op: op}
		if op.NeedsOperand() {
			c.Operand = f.value()
		}
		flt.Constraints = append(flt.Constraints, c)
	}
	return flt
}

// event derives an event of 0–3 attributes (0–5 with the count byte's
// high bit), duplicate names included.
func (f *fuzzScript) event() *event.Event {
	b := event.NewBuilder(string(rune('A' + f.byte()%3)))
	c := f.byte()
	n := int(c % 4)
	if c >= 0x80 {
		n += 2
	}
	for range n {
		b.Val(string(rune('w'+f.byte()%4)), f.value())
	}
	return b.Build()
}
