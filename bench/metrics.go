package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric the benchmark reports. The end-to-end list
// and the per-layer list together are exactly what BENCHMARK.json
// declares; a test holds the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the brokers sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
	{"latency_p50_us", "us", "lower", 0.25},
	{"throughput_eps", "events/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.05},
}

// perLayer is measured from outside each layer: by the budget pass
// timing calls into its public functions, or by reading its public
// counters at phase boundaries. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{name: "event.encode_ns", unit: "ns", better: "lower"},
	{name: "event.parse_ns", unit: "ns", better: "lower"},
	{name: "event.decode_ns", unit: "ns", better: "lower"},
	{name: "event.wire_bytes", unit: "bytes", better: "lower"},
	{name: "transport.write_publish_ns", unit: "ns", better: "lower"},
	{name: "transport.write_batch_ns", unit: "ns", better: "lower"},
	{name: "transport.write_deliver_ns", unit: "ns", better: "lower"},
	{name: "transport.write_forward_ns", unit: "ns", better: "lower"},
	{name: "transport.read_ns", unit: "ns", better: "lower"},
	{name: "transport.allocs_per_frame", unit: "count", better: "lower"},
	{name: "flow.queue_ns", unit: "ns", better: "lower"},
	{name: "flow.gate_ns", unit: "ns", better: "lower"},
	{name: "flow.inlet_depth_max", unit: "count", better: "lower"},
	{name: "flow.out_depth_max", unit: "count", better: "lower"},
	{name: "flow.stalls", unit: "count", better: "lower"},
	{name: "flow.credit_waits", unit: "count", better: "lower"},
	{name: "index.match_ns", unit: "ns", better: "lower"},
	{name: "index.match_allocs", unit: "count", better: "lower"},
	{name: "index.insert_ns", unit: "ns", better: "lower"},
	{name: "index.remove_ns", unit: "ns", better: "lower"},
	{name: "index.filters", unit: "count", better: "lower"},
	{name: "routing.batch_ns", unit: "ns", better: "lower"},
	{name: "routing.self_ns", unit: "ns", better: "lower"},
	{name: "routing.subscribe_ns", unit: "ns", better: "lower"},
	{name: "routing.batch_avg", unit: "count", better: "higher"},
	{name: "routing.mr.b0", unit: "ratio", better: "lower"},
	{name: "routing.mr.b1", unit: "ratio", better: "lower"},
	{name: "routing.mr.b2", unit: "ratio", better: "lower"},
	{name: "weaken.filter_ns", unit: "ns", better: "lower"},
	{name: "peering.subscribe_ns", unit: "ns", better: "lower"},
	{name: "peering.apply_ns", unit: "ns", better: "lower"},
	{name: "peering.match_links_ns", unit: "ns", better: "lower"},
	{name: "peering.forwards", unit: "count", better: "lower"},
	{name: "peering.suppressed_ratio", unit: "ratio", better: "higher"},
	{name: "filter.perfect_ns", unit: "ns", better: "lower"},
	{name: "filter.covers_ns", unit: "ns", better: "lower"},
	{name: "filter.perfect_pass_ratio", unit: "ratio", better: "higher"},
	{name: "store.append_ns", unit: "ns", better: "lower"},
	{name: "store.replay_ns", unit: "ns", better: "lower"},
	{name: "store.bytes_per_event", unit: "bytes", better: "lower"},
	{name: "store.segments", unit: "count", better: "lower"},
	{name: "socket.rtt_ns", unit: "ns", better: "lower"},
	{name: "broker.hop_match_p50_us", unit: "us", better: "lower"},
	{name: "broker.hop_forward_p50_us", unit: "us", better: "lower"},
	{name: "broker.hop_deliver_p50_us", unit: "us", better: "lower"},
	{name: "budget.sum_us", unit: "us", better: "higher"},
	{name: "budget.unexplained_us", unit: "us", better: "lower"},
	{name: "budget.unexplained_ratio", unit: "ratio", better: "lower"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.publish_call_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.latency_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.latency_p999_us", unit: "us", better: "lower"},
	{name: "loadgen.latency_max_us", unit: "us", better: "lower"},
	{name: "loadgen.subscribe_rtt_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.spill_eps", unit: "events/s", better: "higher"},
	{name: "loadgen.replay_eps", unit: "events/s", better: "higher"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}

// values maps a metric name to its measured value.
type values map[string]float64

// report is one workload's outcome.
type report struct {
	Workload  string
	Correct   bool
	Attempted uint64
	Failed    uint64
	Values    values
	Notes     []string // sample counts, validity remarks
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// line renders the report's metrics from defs, every one present.
func (r *report) line(defs []metricDef) (string, error) {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.Values[d.name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	buf, err := json.Marshal(out)
	return string(buf), err
}

// print lists the report's metrics by name with their units.
func (r *report) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d expected deliveries checked, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, d := range defs {
		if v, ok := r.Values[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	sort.Strings(r.Notes)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}
