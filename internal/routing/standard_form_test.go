package routing

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/index"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
	"eventsys/internal/workload"
)

// TestStandardFormKeepsTheIndex is the broker-level regression for the
// Section 4.4 standard form: a stage-1 node whose advertisement keeps all
// four Alert attributes stores every alarm with two presence wildcards
// added, and the indexed engine must still route exactly like the naive
// table while keeping the population on the paired path — no slot left
// in a per-attribute presence posting, where every event would bump it.
func TestStandardFormKeepsTheIndex(t *testing.T) {
	ad, err := typing.NewAdvertisement("Alert", 2, "metric", "value", "topic", "note")
	if err != nil {
		t.Fatal(err)
	}
	ad.StageAttrs = []int{4, 4} // stage 1 keeps all four: nothing is weakened away
	node := func(kind index.Kind) *Node {
		var ads typing.AdvertisementSet
		if err := ads.Put(ad); err != nil {
			t.Fatal(err)
		}
		return NewNode(Config{ID: "b", Stage: 1, Weakener: weaken.New(&ads, nil), Engine: index.Config{Kind: kind}})
	}
	indexed, naive := node(index.KindIndexed), node(index.KindNaive)

	al, err := workload.NewAlerts(11, workload.DefaultAlerts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	now := time.Now()
	for i := 0; i < 10000; i++ {
		f, sid := al.Subscription(), NodeID(fmt.Sprintf("s%05d", i%64))
		stored := indexed.HandleSubscribe(f, sid, rng, now).Stored
		naive.HandleSubscribe(f, sid, rng, now)
		if len(stored.Constraints) != 4 {
			t.Fatalf("stored filter %s is not in standard form", stored)
		}
	}

	const batch = 64
	views := make([]event.View, 0, batch)
	for i := 0; i < 2000; i++ {
		e := al.Event()
		if !e.Has("note") { // the standard form demands every advertised attribute
			e.Set("note", event.String(""))
		}
		// Raise one event in eight into the alarm bands so routes are not
		// all empty.
		if i%8 == 0 {
			e.Set("value", event.Float(99.9+float64(i%100)/1000))
		}
		if views = append(views, e); len(views) < batch && i < 1999 {
			continue
		}
		got, want := indexed.HandleEventBatch(views), naive.HandleEventBatch(views)
		for j := range views {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("event %s: indexed routes %v, naive %v", views[j], got[j], want[j])
			}
		}
		views = views[:0]
	}
	if s := indexed.Counters().Stats("b", 1); s.Forwarded == 0 {
		t.Fatal("no event was routed anywhere: the comparison is vacuous")
	}

	shape := indexed.Table().EngineShape()
	stored := indexed.Table().Len()
	if got := shape.Paired + shape.General + shape.ClassOnly + shape.Oversize + shape.Unindexed; got != stored {
		t.Errorf("shape %+v accounts for %d filters, table holds %d", shape, got, stored)
	}
	if shape.Paired*100 < stored*95 {
		t.Errorf("%d of %d stored filters are paired, want at least 95%%: %+v", shape.Paired, stored, shape)
	}
	if shape.Deferred != stored {
		t.Errorf("%d of %d filters have their wildcards verified at hit time", shape.Deferred, stored)
	}
	if shape.PresenceMax != 0 {
		t.Errorf("a presence posting holds %d slots of filters with selective constraints: %+v", shape.PresenceMax, shape)
	}
	if unindexed := naive.Table().EngineShape().Unindexed; unindexed != stored {
		t.Errorf("naive table reports %d unindexed filters, holds %d", unindexed, stored)
	}
}
