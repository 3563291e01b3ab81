package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed interval at a layer boundary. Spans of one event
// share Event; Parent is the index of the span that caused this one, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Event  uint64 `json:"event"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, in creation order. One goroutine.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, parent int, event uint64, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Event: event, Start: start, End: end})
	return len(t.spans) - 1
}

// time runs fn inside a new span and returns the span's index. The
// clock is read last on the way in and first on the way out, so a span
// holds fn and one clock read.
func (t *tracer) time(name string, parent int, event uint64, fn func()) int {
	i := t.add(name, parent, event, 0, 0)
	t.spans[i].Start = now()
	fn()
	t.spans[i].End = now()
	return i
}

// selfTimes returns every span's self time: its duration minus its
// child spans' durations, with the clock read that each measured
// duration carries (overhead) taken off first.
func (t *tracer) selfTimes(overhead int64) []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start - overhead
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start - overhead
		}
	}
	return self
}

// byName groups per-span values by span name.
func (t *tracer) byName(vals []int64) map[string][]int64 {
	out := map[string][]int64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], vals[i])
	}
	return out
}

// writeSpans writes the budget pass's spans and the live run's harness
// spans as one JSON document.
func writeSpans(path string, budget *tracer, live []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string][]span{"budget": budget.spans, "live": live})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
