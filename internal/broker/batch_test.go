package broker

import (
	"fmt"
	"sync"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// startBatchCluster spins a root plus leaves with a small MaxBatch, so
// wire-level batches and core coalescing both occur.
func startBatchCluster(t *testing.T, leafs int) *cluster {
	t.Helper()
	root, err := Serve(ServerConfig{
		ID: "root", Stage: 2, ListenAddr: "127.0.0.1:0", Seed: 1, MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := &cluster{root: root}
	t.Cleanup(func() {
		for _, b := range cl.brokers {
			b.Close()
		}
		root.Close()
	})
	for i := 0; i < leafs; i++ {
		leaf, err := Serve(ServerConfig{
			ID: fmt.Sprintf("N1.%d", i+1), Stage: 1, ListenAddr: "127.0.0.1:0",
			ParentAddr: root.Addr(), Seed: uint64(i + 2), MaxBatch: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.brokers = append(cl.brokers, leaf)
	}
	waitFor(t, "children joined", func() bool { return root.ChildBrokers() == leafs })
	return cl
}

// TestPublishBatchFrame publishes through the batched wire frame and
// checks every event arrives exactly once, in publish order, through a
// two-stage hierarchy.
func TestPublishBatchFrame(t *testing.T) {
	cl := startBatchCluster(t, 2)
	pub, err := DialPublisher(cl.root.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise(stockAd(t)); err != nil {
		t.Fatal(err)
	}
	waitAds(t, cl, "Stock")

	var mu sync.Mutex
	var got []uint64
	sub, err := DialSubscriber(cl.root.Addr(), "s1",
		filter.MustParseFilter(`class = "Stock" && symbol = "Foo"`),
		SubscriberOptions{}, func(e *event.Event) {
			mu.Lock()
			got = append(got, e.ID)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const batches, per = 10, 25
	want := 0
	for b := 0; b < batches; b++ {
		evs := make([]*event.Event, per)
		for i := range evs {
			sym := "Foo"
			if (b*per+i)%5 == 4 {
				sym = "Bar" // every 5th event must be filtered out
			} else {
				want++
			}
			evs[i] = event.NewBuilder("Stock").Str("symbol", sym).
				Float("price", float64(i)).Build()
		}
		if err := pub.PublishBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "batched deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= want
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != want {
		t.Fatalf("delivered %d events, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	// The root matched in coalesced passes: its batch counters must
	// account for every received event.
	st := cl.root.Stats()
	if st.BatchesMatched == 0 || st.BatchSizeSum != st.Received {
		t.Errorf("root batches=%d sizeSum=%d received=%d", st.BatchesMatched, st.BatchSizeSum, st.Received)
	}
	if st.BatchSizeSum < st.BatchesMatched {
		t.Errorf("sizeSum %d < batches %d", st.BatchSizeSum, st.BatchesMatched)
	}
}

// TestBatchStoreSpill publishes a batch for a disconnected durable
// subscriber: the run must land in the store via the batched append and
// replay in order on reconnect.
func TestBatchStoreSpill(t *testing.T) {
	dir := t.TempDir()
	root, err := Serve(ServerConfig{
		ID: "root", Stage: 1, ListenAddr: "127.0.0.1:0", Seed: 1,
		MaxBatch: 8, DataDir: dir, SyncEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	pub, err := DialPublisher(root.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	f := filter.MustParseFilter(`class = "Job"`)
	// Subscribe and crash (sever without unsubscribing): the lease
	// (TTL 0) keeps routing to the ID, and the durable cursor survives.
	conn := rawSubscribe(t, root.Addr(), "worker", f)
	conn.Close()
	// Wait for the broker's reader to drop the peer, so the batch
	// misses the live path and spills to the store.
	waitFor(t, "broker to drop the dead subscriber", func() bool {
		return root.ConnectedClients() == 1 // just the publisher left
	})

	evs := make([]*event.Event, 12)
	for i := range evs {
		evs[i] = event.NewBuilder("Job").Int("n", int64(i+1)).Build()
	}
	if err := pub.PublishBatch(evs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stored batch", func() bool { return root.Stats().StoreAppended == uint64(len(evs)) })

	var mu sync.Mutex
	var got []int64
	sub2, err := DialSubscriber(root.Addr(), "worker", f, SubscriberOptions{}, func(e *event.Event) {
		n, _ := e.Lookup("n")
		mu.Lock()
		got = append(got, n.IntVal())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	waitFor(t, "replayed batch", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(evs)
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range got {
		if n != int64(i+1) {
			t.Fatalf("replayed[%d] = %d, want %d", i, n, i+1)
		}
	}
}
