package overlay

import (
	"fmt"
	"sync"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// TestBatchedDeliveryOrder verifies the batched pipeline's core
// invariant: per-subscriber delivery order equals publish order, with
// coalescing forced by a tiny MaxBatch-to-inbox ratio.
func TestBatchedDeliveryOrder(t *testing.T) {
	for _, batch := range []int{8, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			sys, err := New(Config{Fanouts: []int{1, 2, 4}, Seed: 42, MaxBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			const subscribers = 8
			const events = 400
			var mu sync.Mutex
			got := make(map[string][]uint64)
			for i := 0; i < subscribers; i++ {
				id := fmt.Sprintf("s%d", i)
				sub := filter.Subscription{filter.MustParseFilter(
					fmt.Sprintf(`class = "Tick" && lane = %d`, i%4))}
				_, err := sys.Subscribe(id, sub, func(e *event.Event) {
					mu.Lock()
					got[id] = append(got[id], e.ID)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < events; i++ {
				e := event.NewBuilder("Tick").Int("lane", int64(i%4)).Build()
				if err := sys.Publish(e); err != nil {
					t.Fatal(err)
				}
			}
			sys.Flush()

			mu.Lock()
			defer mu.Unlock()
			total := 0
			for id, seq := range got {
				total += len(seq)
				if len(seq) != events/4 {
					t.Errorf("%s received %d events, want %d", id, len(seq), events/4)
				}
				for j := 1; j < len(seq); j++ {
					if seq[j] <= seq[j-1] {
						t.Fatalf("%s out of order at %d: %d after %d", id, j, seq[j], seq[j-1])
					}
				}
			}
			if total != subscribers*events/4 {
				t.Errorf("total deliveries = %d, want %d", total, subscribers*events/4)
			}

			// The batch counters must account for every received event.
			for _, st := range sys.Stats() {
				if st.Stage == 0 {
					continue
				}
				if st.BatchesMatched == 0 && st.Received > 0 {
					t.Errorf("broker %s received %d events but recorded no batches", st.NodeID, st.Received)
				}
				if st.BatchSizeSum != st.Received {
					t.Errorf("broker %s: BatchSizeSum = %d, Received = %d", st.NodeID, st.BatchSizeSum, st.Received)
				}
			}
		})
	}
}

// TestBatchedDeliveryIdenticalAcrossBatchSizes publishes one
// deterministic stream per configuration and asserts the full
// per-subscriber delivery sequences are identical whether brokers match
// one event at a time or coalesce up to 16 or 64.
func TestBatchedDeliveryIdenticalAcrossBatchSizes(t *testing.T) {
	run := func(batch int) map[string][]uint64 {
		sys, err := New(Config{Fanouts: []int{1, 4}, Seed: 7, MaxBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		var mu sync.Mutex
		got := make(map[string][]uint64)
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("s%d", i)
			sub := filter.Subscription{filter.MustParseFilter(
				fmt.Sprintf(`class = "Tick" && lane = %d`, i%3))}
			if _, err := sys.Subscribe(id, sub, func(e *event.Event) {
				mu.Lock()
				got[id] = append(got[id], e.ID)
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 300; i++ {
			e := event.NewBuilder("Tick").Int("lane", int64(i%3)).Build()
			if err := sys.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		sys.Flush()
		mu.Lock()
		defer mu.Unlock()
		return got
	}
	want := run(1)
	for _, batch := range []int{16, 64} {
		got := run(batch)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d subscribers delivered, want %d", batch, len(got), len(want))
		}
		for id, seq := range want {
			other := got[id]
			if len(other) != len(seq) {
				t.Fatalf("batch=%d %s: %d events, want %d", batch, id, len(other), len(seq))
			}
			for j := range seq {
				if other[j] != seq[j] {
					t.Fatalf("batch=%d %s: event %d = %d, want %d", batch, id, j, other[j], seq[j])
				}
			}
		}
	}
}
