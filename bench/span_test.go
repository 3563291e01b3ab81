package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	var tr tracer
	root := tr.add("event", -1, 7, 0, 1000)
	read := tr.add("transport.read", root, 7, 100, 400)
	tr.add("event.parse", read, 7, 400, 500) // replayed after its parent, attached to it
	tr.add("flow.queue", root, 7, 600, 650)

	self := tr.selfTimes(0)
	want := []int64{1000 - 300 - 50, 300 - 100, 100, 50}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", tr.spans[i].Name, self[i], want[i])
		}
	}
	// With a 10 ns clock read in every measured duration, each span and
	// each child taken off it is 10 ns shorter.
	self = tr.selfTimes(10)
	if self[read] != (300-10)-(100-10) {
		t.Errorf("self time with overhead = %d", self[read])
	}
	by := tr.byName(self)
	if len(by["event.parse"]) != 1 || by["event.parse"][0] != 90 {
		t.Errorf("byName = %v", by)
	}
}

func TestTimeRecordsASpanAroundTheCall(t *testing.T) {
	var tr tracer
	ran := false
	i := tr.time("x", -1, 3, func() { ran = true })
	s := tr.spans[i]
	if !ran || s.End < s.Start || s.Start == 0 || s.Event != 3 || s.Parent != -1 || s.ID != i {
		t.Errorf("span %+v, ran %v", s, ran)
	}
}

func TestWriteSpans(t *testing.T) {
	var tr tracer
	tr.add("a", -1, 1, 10, 20)
	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := writeSpans(path, &tr, []span{{Name: "live", Parent: -1}}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string][]span
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got["budget"]) != 1 || got["budget"][0].End != 20 || len(got["live"]) != 1 {
		t.Errorf("round trip gave %+v", got)
	}
}
