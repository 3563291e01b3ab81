package main

import "testing"

// pinned are the input digests of seed 1 at full scale. A change here is
// a change of what every run publishes and subscribes: baselines taken
// before it no longer compare.
var pinned = map[string]string{
	"hop1-small":   "871784efb290b7308400873396c4540e193c5971e0de3f76db696ae9cbb17e25",
	"alerts-16k":   "bb6db7c18cd8467769f54a0227f96acc87cdcfab6f9ede18b346dcb0c5467b96",
	"chain-3hop":   "2ca62879c8a88c3a7488d0d02e12a0246945cfea386f894efbff254dd7fbc393",
	"tree-durable": "c8d8d31e67f86e2e8ec9714c35d5e1dd89a2129284183ffcec368dc3fef5c609",
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		other, err := generate(sp, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		da, db, do := a.digest(), b.digest(), other.digest()
		if da != db {
			t.Errorf("%s: seed 1 generated twice differs: %s vs %s", sp.name, da, db)
		}
		if da == do {
			t.Errorf("%s: seeds 1 and 2 generate the same streams", sp.name)
		}
		if da != pinned[sp.name] {
			t.Errorf("%s: seed 1 digest is %s, pinned %s", sp.name, da, pinned[sp.name])
		}
	}
}

func TestEventIDRoundTrip(t *testing.T) {
	id := eventID(123456, 1<<idxBits-1)
	if seqOf(id) != 123456 || idxOf(id) != 1<<idxBits-1 {
		t.Errorf("eventID round trip: seq %d idx %d", seqOf(id), idxOf(id))
	}
	if eventID(2, 0) <= eventID(1, 1<<idxBits-1) {
		t.Error("IDs must rise with the publish sequence whatever the pool index")
	}
}

// TestWorkloadShapes checks the populations the issue fixes.
func TestWorkloadShapes(t *testing.T) {
	in, err := generate(specByName("alerts-16k"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	subs := 0
	for _, s := range in.subs {
		if s.kind == subSink {
			subs += len(s.filters) - 1 // less the sentinel subscription
		}
	}
	if subs != alertSubs || len(in.subs) != alertSinks+1 {
		t.Errorf("alerts-16k: %d subscriptions over %d connections", subs, len(in.subs))
	}
	for _, e := range in.events {
		if e.NumAttrs() != 4 || len(e.Payload) != 8 {
			t.Fatalf("alert event %v: want 4 attributes and an 8-byte payload", e)
		}
	}
	for _, name := range []string{"chain-3hop", "tree-durable"} {
		in, err := generate(specByName(name), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		or, err := newOracle(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		handled := 0
		for i, s := range in.subs {
			if s.kind != subClient {
				continue
			}
			for _, ex := range or.expect[i][:in.regular] {
				if ex == 1 {
					handled++
				}
			}
		}
		if share := float64(handled) / float64(in.regular); share < 0.23 || share > 0.27 {
			t.Errorf("%s: %.3f of events reach a handler, want 0.25 ± 0.02", name, share)
		}
	}
}
