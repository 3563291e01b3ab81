package sim

import (
	"strings"
	"testing"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed, 120, 800)
	cfg.Fanouts = []int{1, 4, 16}
	return cfg
}

func TestRunValidatesAgainstOracle(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Validate = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseNegatives != 0 {
		t.Errorf("false negatives = %d (pre-filtering dropped wanted events)", res.FalseNegatives)
	}
	if res.OracleDisagreements != 0 {
		t.Errorf("oracle disagreements = %d", res.OracleDisagreements)
	}
	if res.Duplicates != 0 {
		t.Errorf("duplicate deliveries = %d", res.Duplicates)
	}
	if res.Delivered == 0 {
		t.Error("nothing was delivered; workload or placement broken")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallConfig(7)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delivered != r2.Delivered || r1.GlobalRLC != r2.GlobalRLC ||
		r1.BrokerFilters != r2.BrokerFilters || r1.ForwardTotal != r2.ForwardTotal {
		t.Errorf("same seed diverged: %+v vs %+v", r1, r2)
	}
	cfg.Seed = 8
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delivered == r3.Delivered && r1.ForwardTotal == r3.ForwardTotal {
		t.Error("different seeds produced identical traffic (suspicious)")
	}
}

func TestRLCShape(t *testing.T) {
	res, err := Run(DefaultConfig(11, 300, 2000))
	if err != nil {
		t.Fatal(err)
	}
	byStage := make(map[int]float64)
	for _, s := range res.Summaries {
		byStage[s.Stage] = s.AvgRLC
	}
	// Paper shape: per-node RLC grows from stage 0 towards the middle
	// stages and every broker is far below the centralized server's 1.
	if byStage[0] >= byStage[1] {
		t.Errorf("stage0 avg RLC %v should be below stage1 %v", byStage[0], byStage[1])
	}
	if byStage[1] >= byStage[2] {
		t.Errorf("stage1 avg RLC %v should be below stage2 %v", byStage[1], byStage[2])
	}
	for stage, rlc := range byStage {
		if rlc >= 1 {
			t.Errorf("stage %d avg RLC %v not below centralized 1", stage, rlc)
		}
	}
	// Global total ≈ 1 claim: within a factor of a few.
	if res.GlobalRLC < 0.1 || res.GlobalRLC > 3 {
		t.Errorf("global RLC = %v, want ≈ 1", res.GlobalRLC)
	}
}

func TestSubscriberMRShape(t *testing.T) {
	res, err := Run(DefaultConfig(13, 300, 3000))
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated near the paper's 0.87 (see workload.BiblioConfig).
	if res.SubscriberAvgMR < 0.7 || res.SubscriberAvgMR > 1.0 {
		t.Errorf("subscriber avg MR = %v, want in [0.7, 1.0] near 0.87", res.SubscriberAvgMR)
	}
	// Subscribers see more relevant traffic than the stage-1 brokers
	// feeding them: that is what pre-filtering buys at the edge.
	byStage := make(map[int]float64)
	for _, s := range res.Summaries {
		byStage[s.Stage] = s.AvgMR
	}
	if byStage[0] <= byStage[1] {
		t.Errorf("subscriber MR %v not above stage-1 MR %v (pre-filtering is not helping)",
			byStage[0], byStage[1])
	}
}

func TestWildcardPopulationRuns(t *testing.T) {
	cfg := smallConfig(17)
	cfg.WildcardProb = 0.3
	cfg.Validate = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseNegatives != 0 || res.Duplicates != 0 {
		t.Errorf("wildcard run broke delivery: FN=%d dup=%d", res.FalseNegatives, res.Duplicates)
	}
}

func TestRandomPlacementStoresMoreFilters(t *testing.T) {
	cfg := DefaultConfig(19, 400, 500)
	clustered, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RandomPlacement = true
	random, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if random.BrokerFilters <= clustered.BrokerFilters {
		t.Errorf("random placement should store more filters: random=%d clustered=%d",
			random.BrokerFilters, clustered.BrokerFilters)
	}
	if random.Delivered != clustered.Delivered {
		t.Errorf("placement changed delivery: %d vs %d", random.Delivered, clustered.Delivered)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Fanouts: []int{1}, Subscribers: 0, Events: 10},
		{Fanouts: []int{1}, Subscribers: 10, Events: 0},
		{Fanouts: []int{0}, Subscribers: 10, Events: 10},
		{Fanouts: []int{1, 2}, Subscribers: 10, Events: 10, StageAttrs: []int{4, 3}}, // wrong len
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, name := range Experiments() {
		t.Run(name, func(t *testing.T) {
			out, err := RunExperiment(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 || !strings.Contains(out, "Experiment") {
				t.Errorf("report malformed:\n%s", out)
			}
		})
	}
	if _, err := RunExperiment("nosuch", 1); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestSubscriberFilters(t *testing.T) {
	cfg := smallConfig(23)
	fs, err := SubscriberFilters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != cfg.Subscribers {
		t.Errorf("filters = %d, want %d", len(fs), cfg.Subscribers)
	}
	for id, f := range fs {
		if f == nil || f.Class != "Biblio" {
			t.Errorf("filter for %s = %v", id, f)
		}
	}
}
