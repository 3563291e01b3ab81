package overlay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/typing"
	"eventsys/internal/workload"
)

// newStockSystem starts a small overlay advertising the Stock class with
// the Example 5 stage association.
func newStockSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.Fanouts == nil {
		cfg.Fanouts = []int{1, 2, 4}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ad, err := typing.NewAdvertisement("Stock", len(cfg.Fanouts)+1, "symbol", "price")
	if err != nil {
		t.Fatal(err)
	}
	ad.StageAttrs = []int{2, 2, 1, 0}
	if err := sys.Advertise(ad); err != nil {
		t.Fatal(err)
	}
	return sys
}

func stockEvent(sym string, price float64) *event.Event {
	return event.NewBuilder("Stock").Str("symbol", sym).Float("price", price).Build()
}

func TestPublishSubscribeEndToEnd(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 1})
	var got []string
	var mu sync.Mutex
	h, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "Foo" && price < 10`)},
		func(e *event.Event) {
			v, _ := e.Lookup("price")
			mu.Lock()
			got = append(got, fmt.Sprintf("%s@%v", "Foo", v.Num()))
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{5, 15, 9.5} {
		if err := sys.Publish(stockEvent("Foo", p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Publish(stockEvent("Bar", 1)); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("handler saw %v, want 2 deliveries", got)
	}
	if h.Delivered() != 2 {
		t.Errorf("Delivered = %d, want 2", h.Delivered())
	}
	if h.Node() == "" || h.StoredFilter() == nil {
		t.Error("handle missing placement info")
	}
}

func TestConcurrentPublishers(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 2})
	var count atomic.Uint64
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "SYM"`)},
		func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	const publishers, perPub = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				if err := sys.Publish(stockEvent("SYM", float64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sys.Flush()
	if got := count.Load(); got != publishers*perPub {
		t.Errorf("delivered %d, want %d", got, publishers*perPub)
	}
}

func TestManySubscribersExactlyOnce(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 3, Fanouts: []int{1, 3, 9}})
	type sub struct {
		h    *Handle
		want string
		seen map[uint64]int
		mu   sync.Mutex
	}
	subs := make([]*sub, 0, 30)
	for i := 0; i < 30; i++ {
		sc := &sub{want: fmt.Sprintf("S%d", i%5), seen: make(map[uint64]int)}
		h, err := sys.Subscribe(fmt.Sprintf("sub%d", i),
			filter.Subscription{filter.MustParseFilter(
				fmt.Sprintf(`class = "Stock" && symbol = %q && price < 50`, sc.want))},
			func(e *event.Event) {
				sc.mu.Lock()
				sc.seen[e.ID]++
				sc.mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
		sc.h = h
		subs = append(subs, sc)
	}
	stocks, err := workload.NewStocks(9, workload.StocksConfig{Symbols: 5, MinPrice: 1, MaxPrice: 100})
	if err != nil {
		t.Fatal(err)
	}
	published := make([]*event.Event, 0, 300)
	for i := 0; i < 300; i++ {
		e := stocks.Event()
		published = append(published, e)
		if err := sys.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	// Oracle: every subscriber gets exactly the matching events, once.
	for _, sc := range subs {
		f := filter.MustParseFilter(fmt.Sprintf(`class = "Stock" && symbol = %q && price < 50`, sc.want))
		want := 0
		for _, e := range published {
			if f.Matches(e, nil) {
				want++
			}
		}
		sc.mu.Lock()
		if len(sc.seen) != want {
			t.Errorf("%s: delivered %d distinct, want %d", sc.h.ID(), len(sc.seen), want)
		}
		for id, n := range sc.seen {
			if n != 1 {
				t.Errorf("%s: event %d delivered %d times", sc.h.ID(), id, n)
			}
		}
		sc.mu.Unlock()
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 4})
	var count atomic.Uint64
	h, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "A"`)},
		func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(stockEvent("A", 1)); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if count.Load() != 1 {
		t.Fatalf("pre-unsubscribe delivered %d", count.Load())
	}
	if err := h.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sys.Publish(stockEvent("A", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	if count.Load() != 1 {
		t.Errorf("post-unsubscribe delivered %d, want 1", count.Load())
	}
}

func TestLeaseExpiryWithoutRenewal(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 5, TTL: time.Minute})
	var count atomic.Uint64
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "A"`)},
		func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// A sweep far in the future expires every lease (nobody renewed in
	// between because AutoMaintain is off and we sweep without renewing).
	for id := range sys.actors {
		_ = sys.send(id, sweepMsg{now: time.Now().Add(10 * time.Minute)})
	}
	sys.Flush()
	if err := sys.Publish(stockEvent("A", 1)); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if count.Load() != 0 {
		t.Errorf("expired subscription still delivered %d events", count.Load())
	}
}

func TestMaintainKeepsLeasesAlive(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 6, TTL: time.Minute})
	var count atomic.Uint64
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "A"`)},
		func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// Renew now, then sweep at a time still inside the renewed window.
	sys.Maintain(time.Now().Add(2 * time.Minute))
	if err := sys.Publish(stockEvent("A", 1)); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if count.Load() != 1 {
		t.Errorf("maintained subscription delivered %d, want 1", count.Load())
	}
}

func TestSubscribeValidation(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 7})
	if _, err := sys.Subscribe("x", nil, func(*event.Event) {}); err == nil {
		t.Error("empty subscription should fail")
	}
	if _, err := sys.Subscribe("x",
		filter.Subscription{filter.MustParseFilter(`class = "Stock"`)}, nil); err == nil {
		t.Error("nil handler should fail")
	}
	if _, err := sys.Subscribe("dup",
		filter.Subscription{filter.MustParseFilter(`class = "Stock"`)}, func(*event.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe("dup",
		filter.Subscription{filter.MustParseFilter(`class = "Stock"`)}, func(*event.Event) {}); err == nil {
		t.Error("duplicate subscriber id should fail")
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing fanouts should fail")
	}
	if _, err := New(Config{Fanouts: []int{0}}); err == nil {
		t.Error("zero fanout should fail")
	}
	sys, err := New(Config{Fanouts: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ad, _ := typing.NewAdvertisement("X", 2, "a")
	if err := sys.Advertise(ad); err == nil {
		t.Error("stage-count mismatch should fail")
	}
	if err := sys.Publish(nil); err == nil {
		t.Error("nil event should fail")
	}
}

func TestDisjunctionSubscription(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 8})
	var count atomic.Uint64
	_, err := sys.Subscribe("s1", filter.Subscription{
		filter.MustParseFilter(`class = "Stock" && symbol = "A"`),
		filter.MustParseFilter(`class = "Stock" && symbol = "B"`),
	}, func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	sys.Publish(stockEvent("A", 1))
	sys.Publish(stockEvent("B", 2))
	sys.Publish(stockEvent("C", 3))
	sys.Flush()
	if count.Load() != 2 {
		t.Errorf("disjunction delivered %d, want 2", count.Load())
	}
}

func TestTypeBasedSubscribing(t *testing.T) {
	reg := typing.NewRegistry()
	reg.MustRegister("Quote", "")
	reg.MustRegister("Stock", "Quote")
	reg.MustRegister("Bond", "Quote")
	sys, err := New(Config{Fanouts: []int{1, 2}, Registry: reg, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var kinds sync.Map
	_, err = sys.Subscribe("all-quotes",
		filter.Subscription{filter.MustParseFilter(`class = "Quote"`)},
		func(e *event.Event) { kinds.Store(e.Type, true) })
	if err != nil {
		t.Fatal(err)
	}
	sys.Publish(event.NewBuilder("Stock").Str("symbol", "A").Build())
	sys.Publish(event.NewBuilder("Bond").Str("issuer", "B").Build())
	sys.Publish(event.NewBuilder("Auction").Str("product", "C").Build())
	sys.Flush()
	for _, want := range []string{"Stock", "Bond"} {
		if _, ok := kinds.Load(want); !ok {
			t.Errorf("subtype %s not delivered to supertype subscription", want)
		}
	}
	if _, ok := kinds.Load("Auction"); ok {
		t.Error("unrelated type delivered")
	}
}

func TestStatsPopulated(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 10})
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "A"`)},
		func(*event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sys.Publish(stockEvent("A", float64(i)))
	}
	sys.Flush()
	stats := sys.Stats()
	var rootRecv, subRecv uint64
	for _, st := range stats {
		if st.Stage == len(sys.cfg.Fanouts) {
			rootRecv += st.Received
		}
		if st.Stage == 0 {
			subRecv += st.Received
		}
	}
	if rootRecv != 10 {
		t.Errorf("root received %d, want 10", rootRecv)
	}
	if subRecv != 10 {
		t.Errorf("subscriber received %d, want 10", subRecv)
	}
}

func TestCloseIdempotentAndSafe(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 11})
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock"`)},
		func(*event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close() // idempotent
	if err := sys.Publish(stockEvent("A", 1)); err == nil {
		t.Error("publish after close should fail")
	}
	if _, err := sys.Subscribe("s2",
		filter.Subscription{filter.MustParseFilter(`class = "Stock"`)},
		func(*event.Event) {}); err == nil {
		t.Error("subscribe after close should fail")
	}
}

func TestAutoMaintainLoop(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 12, TTL: 40 * time.Millisecond, AutoMaintain: true})
	var count atomic.Uint64
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "A"`)},
		func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// Survive several TTL periods thanks to the auto-renewal loop.
	time.Sleep(250 * time.Millisecond)
	if err := sys.Publish(stockEvent("A", 1)); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if count.Load() != 1 {
		t.Errorf("auto-maintained subscription delivered %d, want 1", count.Load())
	}
}

// TestDefaultEngineIsIndexed: a zero Config builds brokers that store
// their filters in the indexed table, not the naive reference table.
func TestDefaultEngineIsIndexed(t *testing.T) {
	sys := newStockSystem(t, Config{Seed: 13})
	var count atomic.Uint64
	_, err := sys.Subscribe("s1",
		filter.Subscription{filter.MustParseFilter(`class = "Stock" && symbol = "A" && price < 5`)},
		func(*event.Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	sys.Publish(stockEvent("A", 3))
	sys.Publish(stockEvent("A", 7))
	sys.Flush()
	if count.Load() != 1 {
		t.Errorf("delivered %d, want 1", count.Load())
	}
	// Flush left every actor idle, so reading its table is safe.
	stored := 0
	for id, a := range sys.actors {
		shape := a.node.Table().EngineShape()
		if shape.Unindexed != 0 {
			t.Errorf("broker %s holds %d filters in an unindexed engine", id, shape.Unindexed)
		}
		stored += shape.Paired + shape.General + shape.ClassOnly + shape.Oversize
	}
	if stored == 0 {
		t.Error("no broker stored the subscription")
	}
}
