package eventsys

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"eventsys/internal/filter"
	"eventsys/internal/workload"
)

// TestSystemIntegration drives one System with everything at once:
// three event classes (two in a type hierarchy), typed and untyped
// subscribers, wildcard subscriptions, a durable subscriber detaching
// mid-stream — cross-checked against direct filter evaluation.
func TestSystemIntegration(t *testing.T) {
	sys := newSystem(t, Options{Fanouts: []int{1, 3, 9}, Seed: 77})
	// Type hierarchy: TechStock <: Stock.
	for _, reg := range [][2]string{{"Stock", ""}, {"TechStock", "Stock"}, {"Auction", ""}} {
		if err := sys.RegisterType(reg[0], reg[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ad := range [][]string{
		{"Stock", "symbol", "price"},
		{"TechStock", "symbol", "price"},
		{"Auction", "product", "kind", "capacity", "price"},
	} {
		if err := sys.Advertise(ad[0], ad[1:]...); err != nil {
			t.Fatal(err)
		}
	}

	// Subscriber population; each records delivered event IDs.
	type subscriber struct {
		text string
		sub  *Subscription
		seen map[uint64]int
		mu   sync.Mutex
	}
	mkSub := func(id, text string, durable bool) *subscriber {
		sc := &subscriber{text: text, seen: make(map[uint64]int)}
		record := func(e *Event) {
			sc.mu.Lock()
			sc.seen[e.ID]++
			sc.mu.Unlock()
		}
		var err error
		if durable {
			sc.sub, err = sys.SubscribeDurable(id, text, record)
		} else {
			sc.sub, err = sys.Subscribe(id, text, record)
		}
		if err != nil {
			t.Fatalf("subscribe %s: %v", id, err)
		}
		return sc
	}
	subs := []*subscriber{
		mkSub("exact", `class = "Stock" && symbol = "SYM01" && price < 50`, false),
		mkSub("typebased", `class = "Stock"`, false), // matches TechStock too
		mkSub("wildcard", `class = "Auction" && product = "Vehicle"`, false),
		mkSub("range", `class = "Auction" && capacity < 2500 && price < 25000`, false),
		mkSub("disjunct", `class = "TechStock" || class = "Auction" && kind = "Car"`, false),
		mkSub("durable", `class = "Stock" && price < 30`, true),
	}

	// Publish a mixed stream; detach the durable subscriber for
	// the middle third.
	stocks, err := workload.NewStocks(7, workload.DefaultStocks())
	if err != nil {
		t.Fatal(err)
	}
	auctions, err := workload.NewAuctions(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 10))
	published := make([]*Event, 0, 600)
	const total = 600
	for i := 0; i < total; i++ {
		if i == total/3 {
			if err := subs[5].sub.Detach(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2*total/3 {
			if err := subs[5].sub.Resume(func(e *Event) {
				subs[5].mu.Lock()
				subs[5].seen[e.ID]++
				subs[5].mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
		}
		var e *Event
		switch rng.IntN(3) {
		case 0:
			e = stocks.Event()
		case 1:
			e = stocks.Event()
			e.Type = "TechStock"
		default:
			e = auctions.Event()
		}
		if err := sys.Publish(e); err != nil {
			t.Fatal(err)
		}
		published = append(published, e)
	}
	sys.Flush()

	// Oracle: direct evaluation with subtype conformance.
	conf := fakeHierarchy{"TechStock": "Stock"}
	for _, sc := range subs {
		parsed, err := filter.Parse(sc.text)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range published {
			if parsed.Matches(e, conf) {
				want++
			}
		}
		sc.mu.Lock()
		got := len(sc.seen)
		dups := 0
		for _, n := range sc.seen {
			if n > 1 {
				dups++
			}
		}
		sc.mu.Unlock()
		if got != want {
			t.Errorf("%s: delivered %d distinct events, oracle wants %d", sc.text, got, want)
		}
		if dups != 0 {
			t.Errorf("%s: %d duplicated deliveries", sc.text, dups)
		}
	}
}

// fakeHierarchy maps subtype -> direct parent.
type fakeHierarchy map[string]string

func (h fakeHierarchy) Conforms(sub, super string) bool {
	for cur := sub; cur != ""; cur = h[cur] {
		if cur == super {
			return true
		}
	}
	return super == "Event"
}

// TestSystemSoak pushes a larger population through the overlay and
// verifies aggregate delivery counts against the oracle.
func TestSystemSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	sys := newSystem(t, Options{Fanouts: []int{1, 4, 16}, Seed: 123})
	if err := sys.Advertise("Stock", "symbol", "price"); err != nil {
		t.Fatal(err)
	}
	const nSubs, nEvents = 300, 3000
	type rec struct {
		f     *filter.Filter
		count int
		mu    sync.Mutex
	}
	recs := make([]*rec, nSubs)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range recs {
		sym := fmt.Sprintf("SYM%02d", rng.IntN(40))
		limit := 10 + rng.IntN(90)
		text := fmt.Sprintf(`class = "Stock" && symbol = %q && price < %d`, sym, limit)
		r := &rec{f: filter.MustParseFilter(text)}
		recs[i] = r
		if _, err := sys.Subscribe(fmt.Sprintf("s%03d", i), text, func(*Event) {
			r.mu.Lock()
			r.count++
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	stocks, err := workload.NewStocks(11, workload.StocksConfig{Symbols: 40, MinPrice: 1, MaxPrice: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, nSubs)
	for i := 0; i < nEvents; i++ {
		e := stocks.Event()
		for j, r := range recs {
			if r.f.Matches(e, nil) {
				want[j]++
			}
		}
		if err := sys.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	for i, r := range recs {
		r.mu.Lock()
		got := r.count
		r.mu.Unlock()
		if got != want[i] {
			t.Errorf("subscriber %d: delivered %d, want %d", i, got, want[i])
		}
	}
}
