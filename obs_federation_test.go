package eventsys

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventsys/internal/obs"
)

// TestObservabilityFederationScrape is the golden scrape test: a live
// two-broker federation serving /metrics over HTTP, scraped like a
// Prometheus server would. It pins the exposition well-formed (via the
// in-repo validator), the node/flow/peer-link families present on both
// brokers, counters monotonic across publish rounds, hop histograms
// populated under load, and /healthz flipping on shutdown.
func TestObservabilityFederationScrape(t *testing.T) {
	a, err := ServeBroker(BrokerOptions{
		ID: "geneva", PeerMaxStage: 2, ObsAddr: "127.0.0.1:0", Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ServeBroker(BrokerOptions{
		ID: "zurich", PeerMaxStage: 2, Peers: []string{a.Addr()},
		ObsAddr: "127.0.0.1:0", Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitForCond(t, "peer link up", func() bool {
		for _, br := range []*Broker{a, b} {
			for _, ps := range br.PeerStats() {
				if ps.Up {
					return true
				}
			}
		}
		return false
	})

	pub, err := DialPublisher(a.Addr(), "ticker")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Advertise("Stock", "symbol", "price"); err != nil {
		t.Fatal(err)
	}
	waitForCond(t, "advertisement to flood", func() bool {
		return len(a.Advertised()) == 1 && len(b.Advertised()) == 1
	})

	var delivered atomic.Int64
	sub, err := DialSubscriber(b.Addr(), "bob", `class = "Stock" && price < 1000`,
		func(*Event) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitForCond(t, "interest to propagate", func() bool {
		for _, ps := range a.PeerStats() {
			if ps.Interests > 0 {
				return true
			}
		}
		return false
	})

	publish := func(n int) {
		t.Helper()
		before := delivered.Load()
		for i := 0; i < n; i++ {
			e := NewEvent("Stock").Str("symbol", "ACME").Float("price", float64(i)).Build()
			if err := pub.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		waitForCond(t, "cross-broker deliveries", func() bool {
			return delivered.Load() >= before+int64(n)
		})
	}

	scrape := func(br *Broker) string {
		t.Helper()
		resp, err := http.Get("http://" + br.ObsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
			t.Fatalf("broker %s: malformed exposition: %v", br.ObsAddr(), err)
		}
		return string(body)
	}

	publish(100)
	firstA, firstB := scrape(a), scrape(b)

	// Every stats surface shows up: node counters, flow queue gauges,
	// peer-link families, hop histograms, engine shape, socket counters,
	// covering-index counters.
	for _, want := range []string{
		"eventsys_node_received_events_total",
		"eventsys_node_lc",
		"eventsys_queue_depth",
		"eventsys_peer_link_up",
		"eventsys_peer_link_forwarded_events_total",
		"eventsys_hop_latency_seconds_bucket",
		"eventsys_engine_filters",
		"eventsys_conn_reads_total",
		"eventsys_conn_frames_read_total",
		"eventsys_conn_writes_total",
		"eventsys_conn_frames_written_total",
		"eventsys_node_cover_checks_total",
		"eventsys_node_peer_absorbed_total",
	} {
		for who, exp := range map[string]string{"geneva": firstA, "zurich": firstB} {
			if !strings.Contains(exp, want) {
				t.Errorf("broker %s: family %s missing from scrape", who, want)
			}
		}
	}

	// zurich stores bob's filter on an indexed path of the default
	// (indexed) engine; nothing is held unindexed.
	paired := scrapeSeries(t, firstB, "eventsys_engine_filters", `path="paired"`)
	general := scrapeSeries(t, firstB, "eventsys_engine_filters", `path="general"`)
	if paired+general < 1 {
		t.Errorf("zurich reports %v paired and %v general filters, want bob's on one of them", paired, general)
	}
	if n := scrapeSeries(t, firstB, "eventsys_engine_filters", `path="unindexed"`); n != 0 {
		t.Errorf("zurich reports %v unindexed filters, want 0", n)
	}

	publish(100)
	secondA := scrape(a)

	recv1 := scrapeSeries(t, firstA, "eventsys_node_received_events_total", `node="geneva"`)
	recv2 := scrapeSeries(t, secondA, "eventsys_node_received_events_total", `node="geneva"`)
	if recv2 < recv1 || recv2 < 200 {
		t.Fatalf("received counter not monotonic: %v then %v (published 200)", recv1, recv2)
	}
	if fwd := scrapeSeries(t, secondA, "eventsys_peer_link_forwarded_events_total", `peer="zurich"`); fwd < 200 {
		t.Errorf("peer link forwarded %v events to zurich, want >= 200", fwd)
	}
	if hops := scrapeSeries(t, secondA, "eventsys_hop_latency_seconds_count", `hop="match"`); hops <= 0 {
		t.Error("hop-latency histograms empty with tracing on")
	}
	// geneva read 200 Publish frames and forwarded their events to zurich
	// (batched, so in fewer frames); a read or a write may carry many
	// frames but never less than one.
	for _, dir := range []struct {
		calls, frames string
		atLeast       float64
	}{{"reads", "frames_read", 200}, {"writes", "frames_written", 1}} {
		calls := scrapeSeries(t, secondA, "eventsys_conn_"+dir.calls+"_total", `node="geneva"`)
		frames := scrapeSeries(t, secondA, "eventsys_conn_"+dir.frames+"_total", `node="geneva"`)
		if frames < dir.atLeast || calls < 1 || calls > frames {
			t.Errorf("geneva socket counters: %v %s in %v %s, want >= %v frames and 1 <= calls <= frames",
				frames, dir.frames, calls, dir.calls, dir.atLeast)
		}
	}

	// /healthz flips on shutdown. Broker.Close flips the registry
	// before stopping the listener, so a scrape can race either into a
	// 503 or a refused connection — both prove the flip preceded the
	// teardown; a 200 would be the bug.
	healthURL := "http://" + b.ObsAddr() + "/healthz"
	if resp, err := http.Get(healthURL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz status %d while up", resp.StatusCode)
		}
	}
	b.Close()
	if !b.ObsRegistry().Healthy() {
		// Registry verdict is deterministic even though the HTTP
		// listener's lifetime is not.
		t.Log("registry unhealthy after Close, as expected")
	} else {
		t.Fatal("registry still healthy after Close")
	}
	resp, err := http.Get(healthURL)
	switch {
	case err != nil:
		var opErr *net.OpError
		if !errors.As(err, &opErr) {
			t.Fatalf("/healthz after close: unexpected error %v", err)
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		resp.Body.Close()
	default:
		resp.Body.Close()
		t.Fatalf("/healthz status %d after Close, want 503 or refused", resp.StatusCode)
	}
}

// scrapeSeries sums the samples of name whose label block contains
// labelFrag.
func scrapeSeries(t *testing.T, exposition, name, labelFrag string) float64 {
	t.Helper()
	total, found := 0.0, false
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+"{") || !strings.Contains(line, labelFrag) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("series %s: bad value in %q", name, line)
		}
		total += v
		found = true
	}
	if !found {
		t.Fatalf("series %s{%s} absent from exposition", name, labelFrag)
	}
	return total
}

// TestObservabilitySystemFacade pins the single-process facade path:
// Options.ObsAddr serves the overlay's own stats, and System.Close
// flips health before draining.
func TestObservabilitySystemFacade(t *testing.T) {
	sys, err := New(Options{ObsAddr: "127.0.0.1:0", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Advertise("Tick", "n"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 64)
	if _, err := sys.Subscribe("watcher", `class = "Tick"`, func(*Event) { done <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sys.Publish(NewEvent("Tick").Float("n", float64(i)).Build()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("deliveries timed out")
		}
	}

	resp, err := http.Get("http://" + sys.ObsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	// Node stats come from the overlay's per-node counters; delivery
	// happens at the stage-1 nodes, so sum across all node labels.
	if got := scrapeSeries(t, string(body), "eventsys_node_delivered_events_total", `node=`); got < 10 {
		t.Fatalf("delivered counter %v, want >= 10", got)
	}
	if hops := scrapeSeries(t, string(body), "eventsys_hop_latency_seconds_count", `hop="deliver"`); hops <= 0 {
		t.Fatal("deliver hop histogram empty with tracing on")
	}

	sys.Close()
	if sys.ObsRegistry().Healthy() {
		t.Fatal("registry still healthy after Close")
	}
}
