// Command eventsim reproduces the paper's evaluation (Section 5): the
// RLC table, the Figure 7 matching-rate series, the global-RLC and
// baseline comparisons, and the ablations listed in DESIGN.md.
//
// Usage:
//
//	eventsim -experiment table1           # one experiment
//	eventsim -experiment all              # everything, in report order
//	eventsim -list                        # available experiments
//	eventsim -experiment fig7 -seed 42    # different population
//	eventsim -experiment engines -max-batch 256 -subs 10000
//
// It also fronts the deterministic cluster simulator:
//
//	eventsim -experiment cluster          # run the scenario suite
//	eventsim -scenarios                   # list cluster scenarios
//	eventsim -scenario crash-recovery-chain -seed 7
//	eventsim -digests                     # scenario digests (CI gate)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eventsys/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eventsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eventsim", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment id or 'all'")
	seed := fs.Uint64("seed", 1, "random seed for the population")
	list := fs.Bool("list", false, "list experiment ids and exit")
	maxBatch := fs.Int("max-batch", 0, "matching batch size for the engines experiment (0 = 64)")
	subs := fs.Int("subs", 0, "population size for the engines experiment (0 = 5000)")
	flowWindow := fs.Int("flow-window", 0, "delivery-queue window for the flow experiment (0 = 64)")
	scenario := fs.String("scenario", "", "run one cluster scenario and report its result")
	scenarios := fs.Bool("scenarios", false, "list cluster scenarios and exit")
	digests := fs.Bool("digests", false, "print every cluster scenario's digest and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := sim.Options{MaxBatch: *maxBatch, Subscribers: *subs, FlowWindow: *flowWindow}
	if *list {
		for _, name := range sim.Experiments() {
			fmt.Println(name)
		}
		return nil
	}
	if *scenarios {
		for _, sc := range sim.Scenarios() {
			fmt.Printf("%-22s %s\n", sc.Name, sc.About)
		}
		return nil
	}
	if *digests {
		out, err := sim.ScenarioDigests(*seed)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	if *scenario != "" {
		res, err := sim.RunScenario(*scenario, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("scenario  %s (seed %d)\n", *scenario, *seed)
		fmt.Printf("digest    %s (%d lines)\n", res.Digest, res.DigestLines)
		fmt.Printf("ledger    %+v\n", res.Ledger)
		fmt.Printf("latency   p50=%dus p99=%dus (publish to delivery)\n", res.LatencyP50US, res.LatencyP99US)
		fmt.Printf("time      %v virtual, %d events, %v wall\n",
			time.Duration(res.VirtualUS)*time.Microsecond, res.Events, res.Wall)
		for _, b := range res.Brokers {
			fmt.Printf("broker %d  up=%t recv=%d sent=%d lost=%d spooled=%d pending=%d filters=%d\n",
				b.ID, b.Up, b.Received, b.Sent, b.Lost, b.Spooled, b.Pending, b.Filters)
		}
		return nil
	}
	names := sim.Experiments()
	if *experiment != "all" {
		names = []string{*experiment}
	}
	for i, name := range names {
		out, err := sim.RunExperimentOpts(name, *seed, opts)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Println()
			fmt.Println("────────────────────────────────────────────────────────")
			fmt.Println()
		}
		fmt.Print(out)
	}
	return nil
}
