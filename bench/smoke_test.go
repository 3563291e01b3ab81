package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload end to end, untraced and traced, with
// populations ten times smaller and phases of about a second. It asserts
// completion, a clean oracle verdict and that every declared metric was
// measured; it asserts no timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real brokers")
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, seconds: 1, trace: trace, scale: 10, tmp: t.TempDir()}
			rep, err := runWorkload(sp, o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", sp.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", sp.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if _, err := rep.line(defs); err != nil {
				t.Error(err)
			}
			for _, d := range endToEnd {
				if v := rep.Values[d.name]; v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", sp.name, d.name, v)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json, which the driver reads,
// in step with the workloads and metrics this package runs.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d declared as %q (%q), run as %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d reported", len(got), kind, len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d declared as %+v, reported as %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s: bound declared %v, enforced by -repeat %v", d.name, m.Bound, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEnd, true)
	check("per-layer", decl.PerLayer, perLayer, false)
}
