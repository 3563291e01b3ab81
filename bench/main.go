// Command bench is the live loopback benchmark: it boots real brokers
// in-process on 127.0.0.1, drives them over real TCP from one publisher,
// checks every delivery against a reference computation, and reports
// end-to-end metrics (untraced run) and per-layer metrics (traced run).
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// environment is recorded with every output: numbers from another box,
// toolchain or commit are not comparable.
type environment struct {
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func environmentOf(seed uint64) environment {
	env := environment{Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the result line; empty runs the whole suite")
		seed     = flag.Uint64("seed", 1, "seed of every generator")
		seconds  = flag.Float64("seconds", 0, "length of the measured phases together (default 30, 2 with -smoke)")
		trace    = flag.Int("trace", 0, "1: hop tracing on, harness spans, budget pass; reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "populations ten times smaller, phases of about a second")
		repeat   = flag.Int("repeat", 0, "run the suite this many times and fail if an end-to-end metric moves by more than its bound")
		spans    = flag.String("spans", "", "with -trace 1 and -workload: write the spans to this file as JSON")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, spans: *spans, tmp: filepath.Join(".bench_build", "tmp")}
	if *smoke {
		o.scale = 10
	}
	if o.seconds == 0 {
		o.seconds = 30
		if *smoke {
			o.seconds = 2
		}
	}
	if err := run(*workload, *repeat, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, repeat int, o options) error {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	env, _ := json.Marshal(environmentOf(o.seed))
	fmt.Printf("environment %s\n", env)
	switch {
	case workload != "":
		return single(workload, o)
	case repeat > 1:
		return repeated(repeat, o)
	}
	_, err := suite(o, true)
	return err
}

// single is the driver's entry: one workload, one mode, the result line
// last.
func single(name string, o options) error {
	sp := specByName(name)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	rep, err := runWorkload(sp, o)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep.print(os.Stdout, defs)
	line, err := rep.line(defs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// suite runs every workload untraced and, when traced is set, again
// traced, and prints every metric by name. It ends with a summary that
// claims nothing: this benchmark defines the baseline.
func suite(o options, traced bool) (map[string]values, error) {
	all := map[string]values{}
	for _, sp := range specs {
		o.trace = false
		rep, err := runWorkload(sp, o)
		if err != nil {
			return nil, err
		}
		rep.print(os.Stdout, endToEnd)
		all[sp.name] = rep.Values
		if !traced {
			continue
		}
		o.trace = true
		trep, err := runWorkload(sp, o)
		if err != nil {
			return nil, err
		}
		trep.print(os.Stdout, perLayer)
		for _, d := range perLayer {
			all[sp.name][d.name] = trep.Values[d.name]
		}
	}
	summary, err := json.Marshal(struct {
		environment
		Workloads map[string]values `json:"workloads"`
		Claim     *string           `json:"claim"`
	}{environmentOf(o.seed), all, nil})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(summary))
	return all, nil
}

// worsening returns by what share of the better value the worse of two
// measurements is worse.
func worsening(a, b float64) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo <= 0 {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

// repeated runs the untraced suite n times with the same seed and fails
// if any end-to-end metric of any workload differs between two runs by
// more than its bound.
func repeated(n int, o options) error {
	var runs []map[string]values
	for i := 0; i < n; i++ {
		all, err := suite(o, false)
		if err != nil {
			return err
		}
		runs = append(runs, all)
	}
	failed := 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range runs {
				lo, hi = math.Min(lo, r[sp.name][d.name]), math.Max(hi, r[sp.name][d.name])
			}
			spread := worsening(lo, hi)
			mark := "ok"
			if spread > d.bound {
				mark = "OVER BOUND"
				failed++
			}
			fmt.Printf("%-13s %-18s spread %6.2f%% bound %5.1f%% %s\n", sp.name, d.name, 100*spread, 100*d.bound, mark)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d end-to-end metrics moved by more than their bound between %d runs of the same code", failed, n)
	}
	return nil
}
