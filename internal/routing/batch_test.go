package routing

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/index"
)

// TestTableMatchBatchEquivalence: the batch path must return exactly what
// per-event Match returns, for every engine kind.
func TestTableMatchBatchEquivalence(t *testing.T) {
	for _, cfg := range []index.Config{{Kind: index.KindIndexed}, {Kind: index.KindNaive}} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			tab := NewTable(cfg)
			exp := time.Now().Add(time.Hour)
			for i := 0; i < 20; i++ {
				f := filter.MustParseFilter(fmt.Sprintf(`class = "Tick" && lane = %d`, i%5))
				tab.Insert(f, NodeID(fmt.Sprintf("n%d", i)), exp)
			}
			evs := make([]event.View, 30)
			for i := range evs {
				evs[i] = event.NewBuilder("Tick").Int("lane", int64(i%7)).Build()
			}
			ids, matched := tab.MatchBatch(evs)
			for i, e := range evs {
				wantIDs, wantMatched := tab.Match(e)
				if !reflect.DeepEqual(ids[i], wantIDs) {
					t.Fatalf("event %d: batch IDs %v, Match %v", i, ids[i], wantIDs)
				}
				if (matched[i] > 0) != (wantMatched > 0) {
					t.Fatalf("event %d: batch matched %d, Match %d", i, matched[i], wantMatched)
				}
			}
		})
	}
}

// TestHandleEventBatchCounters verifies the Section 5.1 counter semantics
// of the batch path (identical to per-event HandleEvent) plus the
// batch-efficiency counters.
func TestHandleEventBatchCounters(t *testing.T) {
	n := NewNode(Config{ID: "b", Stage: 1, Parent: "root"})
	// Insert the exact filter directly (bypassing the per-stage weakener,
	// which would store a class-only filter without an advertisement).
	n.Table().Insert(filter.MustParseFilter(`class = "Tick" && lane = 1`),
		"s1", time.Now().Add(time.Hour))
	evs := []event.View{
		event.NewBuilder("Tick").Int("lane", 1).Build(),
		event.NewBuilder("Tick").Int("lane", 2).Build(),
		event.NewBuilder("Tick").Int("lane", 1).Build(),
	}
	routes := n.HandleEventBatch(evs)
	if len(routes) != 3 || len(routes[0]) != 1 || len(routes[1]) != 0 || len(routes[2]) != 1 {
		t.Fatalf("routes = %v, want s1 for events 0 and 2", routes)
	}
	st := n.Counters().Stats("b", 1)
	if st.Received != 3 || st.Matched != 2 || st.Forwarded != 2 {
		t.Errorf("received/matched/forwarded = %d/%d/%d, want 3/2/2",
			st.Received, st.Matched, st.Forwarded)
	}
	if st.BatchesMatched != 1 || st.BatchSizeSum != 3 {
		t.Errorf("batches/sizeSum = %d/%d, want 1/3", st.BatchesMatched, st.BatchSizeSum)
	}
	if n.HandleEventBatch(nil) != nil {
		t.Error("empty batch should route nowhere")
	}
	if st := n.Counters().Stats("b", 1); st.BatchesMatched != 1 {
		t.Error("empty batch must not count as a matching pass")
	}
}
