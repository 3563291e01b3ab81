package sim

import (
	"fmt"
	"strings"
	"time"

	"eventsys/internal/flow"
	"eventsys/internal/workload"
)

// Scenario is one named, seeded cluster simulation with its own
// invariant checks. The scenario set is the simulation regression suite:
// CI runs every scenario twice per seed and asserts byte-identical
// digests, and compares the digests against the golden file in
// internal/sim/testdata (see scripts/sim_digests.sh).
type Scenario struct {
	// Name is the CLI and golden-file key.
	Name string
	// About is a one-line description.
	About string
	// Config builds the scenario configuration for a seed.
	Config func(seed uint64) ClusterConfig
	// Check validates scenario-specific invariants beyond conservation.
	Check func(*ClusterResult) error
}

// Scenarios returns the scenario suite in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:  "steady-tree",
			About: "7-broker tree, full default workload (churn, crowds, storms), Block policy",
			Config: func(seed uint64) ClusterConfig {
				return ClusterConfig{
					Seed:      seed,
					Topology:  Tree(7, 2),
					Workload:  workload.DefaultCluster(10_000),
					Policy:    flow.Block,
					PublishAt: -1, SubscribeAt: -1,
				}
			},
			Check: func(r *ClusterResult) error {
				if r.Ledger.Delivered == 0 {
					return fmt.Errorf("steady-tree delivered nothing")
				}
				return nil
			},
		},
		{
			Name:  "flash-crowd-star",
			About: "5-broker star, flash-crowd bursts overrun delivery windows, DropOldest sheds",
			Config: func(seed uint64) ClusterConfig {
				w := workload.DefaultCluster(5_000)
				w.FlashCrowds, w.CrowdSubs, w.CrowdPubs = 3, 60, 400
				return ClusterConfig{
					Seed:      seed,
					Topology:  Star(5),
					Workload:  w,
					Policy:    flow.DropOldest,
					Window:    16,
					ConsumeUS: 40,
					PublishAt: -1, SubscribeAt: -1,
				}
			},
			Check: func(r *ClusterResult) error {
				if r.Ledger.Dropped == 0 {
					return fmt.Errorf("flash-crowd-star shed nothing: the crowd burst should overrun 16-slot windows")
				}
				return nil
			},
		},
		{
			Name:  "churn-storm-chain",
			About: "4-broker chain, correlated churn storms against SpillToStore",
			Config: func(seed uint64) ClusterConfig {
				w := workload.DefaultCluster(20_000)
				w.ChurnOps, w.ChurnStorms, w.StormSize = 200, 3, 80
				w.FlashCrowds = 0
				return ClusterConfig{
					Seed:      seed,
					Topology:  Chain(4),
					Workload:  w,
					Policy:    flow.SpillToStore,
					PublishAt: -1, SubscribeAt: -1,
				}
			},
			Check: func(r *ClusterResult) error {
				if r.Ledger.Delivered == 0 {
					return fmt.Errorf("churn-storm-chain delivered nothing")
				}
				return nil
			},
		},
		{
			Name:  "crash-recovery-chain",
			About: "3-broker chain, middle relay crashes and restarts; oracle proves loss-free in-order recovery",
			Config: func(seed uint64) ClusterConfig {
				w := quiescedWorkload(300, 60, 500, 200)
				// Publishes run [6100, 106100); the crash lands 100us after
				// publish #150, when the relay's queues have drained (the
				// live chaos test quiesces before the kill for the same
				// reason), and heals 20ms later, mid-publish-phase.
				return ClusterConfig{
					Seed:      seed,
					Topology:  Chain(3),
					Workload:  w,
					Policy:    flow.Block,
					PublishAt: 0, SubscribeAt: -1,
					Home: func(client uint64, brokers int) int {
						if client%2 == 0 {
							return 0
						}
						return brokers - 1
					},
					Faults: []Fault{{At: 36_200, Duration: 20_000, Kind: FaultCrash, Broker: 1}},
					Oracle: true,
				}
			},
			Check: func(r *ClusterResult) error {
				if err := oracleClean(r); err != nil {
					return err
				}
				if r.Ledger.FrameLost != 0 || r.Ledger.Dropped != 0 {
					return fmt.Errorf("crash-recovery-chain lost traffic: %d frames, %d copies", r.Ledger.FrameLost, r.Ledger.Dropped)
				}
				if r.Ledger.FrameSpooled == 0 {
					return fmt.Errorf("crash-recovery-chain never spooled: the outage should have forced the durable path")
				}
				return nil
			},
		},
		{
			Name:  "partition-heal-mesh",
			About: "8-broker random tree, a link partitions and heals; oracle proves loss-free in-order delivery",
			Config: func(seed uint64) ClusterConfig {
				topo := RandomTree(8, NewStreams(seed))
				return ClusterConfig{
					Seed:      seed,
					Topology:  topo,
					Workload:  quiescedWorkload(2_000, 120, 600, 100),
					Policy:    flow.Block,
					PublishAt: 0, SubscribeAt: -1,
					Faults: []Fault{{At: 32_100, Duration: 15_000, Kind: FaultPartition, Link: topo.Edges[3]}},
					Oracle: true,
				}
			},
			Check: func(r *ClusterResult) error {
				if err := oracleClean(r); err != nil {
					return err
				}
				if r.Ledger.FrameLost != 0 || r.Ledger.Dropped != 0 {
					return fmt.Errorf("partition-heal-mesh lost traffic: %d frames, %d copies", r.Ledger.FrameLost, r.Ledger.Dropped)
				}
				return nil
			},
		},
		{
			Name:  "broker-death-heal",
			About: "3-broker ring, the hub dies mid-stream; the standby edge promotes and re-routes its spool — oracle-verified",
			Config: func(seed uint64) ClusterConfig {
				// Triangle: the election picks (0,1) and (0,2), so broker 0
				// is the traffic hub, and holds (1,2) standby. Clients live
				// only at 1 and 2; the hub carries their cross-traffic.
				// The crash lands 10us before a publish, when the hub's
				// queues have drained (nothing in its RAM to lose), and the
				// hub stays dead past the end of publishing (106_100) — the
				// whole second half of the stream rides the promoted edge.
				return ClusterConfig{
					Seed:      seed,
					Topology:  Ring(3),
					Workload:  quiescedWorkload(300, 60, 500, 200),
					Policy:    flow.Block,
					PublishAt: 1, SubscribeAt: -1,
					Home: func(client uint64, brokers int) int {
						return 1 + int(client%2)
					},
					Faults: []Fault{{At: 36_090, Duration: 80_000, Kind: FaultCrash, Broker: 0}},
					Oracle: true,
				}
			},
			Check: func(r *ClusterResult) error {
				if err := oracleClean(r); err != nil {
					return err
				}
				if r.Ledger.FrameLost != 0 || r.Ledger.Dropped != 0 {
					return fmt.Errorf("broker-death-heal lost traffic: %d frames, %d copies", r.Ledger.FrameLost, r.Ledger.Dropped)
				}
				if r.Failovers == 0 {
					return fmt.Errorf("the hub died with a standby path available, yet no failover ran")
				}
				if r.Ledger.FrameSpooled == 0 {
					return fmt.Errorf("the dead hub's links should have spooled before the handoff")
				}
				if r.Rerouted == 0 {
					return fmt.Errorf("failover completed without re-routing any orphaned frames")
				}
				if r.Ledger.Stored != 0 || r.Ledger.FramePending != 0 {
					return fmt.Errorf("undrained state at end of run: stored=%d framePending=%d", r.Ledger.Stored, r.Ledger.FramePending)
				}
				return nil
			},
		},
		{
			Name:  "slow-consumer-stall",
			About: "5-broker tree, stalled subscribers back up into SpillToStore; oracle proves complete delivery",
			Config: func(seed uint64) ClusterConfig {
				return ClusterConfig{
					Seed:     seed,
					Topology: Tree(5, 2),
					Workload: quiescedWorkload(1_000, 80, 400, 100),
					Policy:   flow.SpillToStore,
					// Single publish broker: the oracle's order check assumes
					// per-source FIFO from one source.
					PublishAt: 0, SubscribeAt: -1,
					Faults: []Fault{
						{At: 13_100, Duration: 20_000, Kind: FaultStall, Sub: 0},
						{At: 18_100, Duration: 15_000, Kind: FaultStall, Sub: -1},
					},
					Oracle: true,
				}
			},
			Check: func(r *ClusterResult) error {
				if err := oracleClean(r); err != nil {
					return err
				}
				if r.Ledger.Dropped != 0 {
					return fmt.Errorf("slow-consumer-stall dropped %d copies under a lossless policy", r.Ledger.Dropped)
				}
				return nil
			},
		},
		{
			Name:  "lossy-links",
			About: "3-broker chain over 5%-lossy links; retransmission delays, never loses — oracle-verified",
			Config: func(seed uint64) ClusterConfig {
				return ClusterConfig{
					Seed:     seed,
					Topology: Chain(3),
					Link:     LinkProfile{Loss: 0.05},
					Workload: quiescedWorkload(500, 60, 400, 100),
					Policy:   flow.Block,
					// Oracle order checking needs a single publish broker: the
					// delivery guarantee is per-source FIFO, not a global total
					// order across publishers.
					PublishAt: 0, SubscribeAt: -1,
					Oracle: true,
				}
			},
			Check: oracleClean,
		},
		{
			Name:  "million-clients",
			About: "6-broker star, million-client identity space",
			Config: func(seed uint64) ClusterConfig {
				w := workload.DefaultCluster(1_000_000)
				w.Subs, w.Publishes = 400, 3_000
				return ClusterConfig{
					Seed:      seed,
					Topology:  Star(6),
					Workload:  w,
					Policy:    flow.Block,
					PublishAt: -1, SubscribeAt: -1,
				}
			},
			Check: func(r *ClusterResult) error {
				if r.Ledger.Delivered == 0 {
					return fmt.Errorf("million-clients delivered nothing")
				}
				return nil
			},
		},
		{
			Name:  "partitioned-scale",
			About: "4 replicas share 64 partitions under a CPU service-time model; aggregate throughput scales near-linearly",
			Config: func(seed uint64) ClusterConfig {
				return PartitionedScale(seed, 4)
			},
			Check: func(r *ClusterResult) error {
				if r.Ledger.Delivered == 0 {
					return fmt.Errorf("partitioned-scale delivered nothing")
				}
				for _, bs := range r.Brokers {
					if bs.Received == 0 {
						return fmt.Errorf("partitioned-scale: broker %d processed nothing — partition placement is not spreading ingress", bs.ID)
					}
				}
				if r.LatencyP50US <= 0 || r.LatencyP99US < r.LatencyP50US {
					return fmt.Errorf("partitioned-scale latency percentiles degenerate: p50=%dus p99=%dus", r.LatencyP50US, r.LatencyP99US)
				}
				return nil
			},
		},
	}
}

// PartitionedScale builds the partitioned-scale configuration for a
// replica count: one fixed workload (4000 publishes arriving every 5µs)
// against brokers that each need 40µs of CPU per event — a single
// broker is 8x oversubscribed, so completion time is CPU-bound and the
// partition map's ingress spreading is what buys throughput. The
// scenario pins replicas=4; PartitionExperiment sweeps 1/2/4/8.
func PartitionedScale(seed uint64, replicas int) ClusterConfig {
	return ClusterConfig{
		Seed:       seed,
		Topology:   Chain(replicas),
		Workload:   quiescedWorkload(800, 64, 4_000, 5),
		Policy:     flow.Block,
		Partitions: 64,
		ProcUS:     40,
		PublishAt:  -1, SubscribeAt: -1,
	}
}

// quiescedWorkload is the oracle-compatible workload shape: no churn, no
// crowds, no storms, and publish pacing slow enough that the control
// plane fully propagates before publishing starts.
func quiescedWorkload(clients, subs, publishes int, pubGap int64) workload.ClusterConfig {
	return workload.ClusterConfig{
		Clients:        clients,
		Topics:         16,
		TopicSkew:      1.2,
		ValueRange:     1000,
		Subs:           subs,
		ValueBoundProb: 0.3,
		Publishes:      publishes,
		PubGap:         pubGap,
	}
}

func oracleClean(r *ClusterResult) error {
	if r.OracleMissing != 0 || r.OracleExtra != 0 || r.Duplicates != 0 || r.OrderViolations != 0 {
		return fmt.Errorf("oracle violated: missing=%d extra=%d duplicates=%d order=%d",
			r.OracleMissing, r.OracleExtra, r.Duplicates, r.OrderViolations)
	}
	return nil
}

// ScenarioByName finds a scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunScenario runs one named scenario and applies its checks plus the
// universal conservation invariant.
func RunScenario(name string, seed uint64) (*ClusterResult, error) {
	sc, ok := ScenarioByName(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown scenario %q", name)
	}
	res, err := RunCluster(sc.Config(seed))
	if err != nil {
		return nil, err
	}
	if !res.Ledger.Conserved() {
		return res, fmt.Errorf("sim: %s violates copy conservation: %+v", name, res.Ledger)
	}
	if sc.Check != nil {
		if err := sc.Check(res); err != nil {
			return res, fmt.Errorf("sim: %s: %w", name, err)
		}
	}
	return res, nil
}

// ClusterExperiment runs the full cluster scenario suite once (A9) and
// reports one line per scenario: scale, outcome counters, virtual and
// wall time, and the digest that pins the run.
func ClusterExperiment(seed uint64) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Experiment A9 — cluster simulation scenarios (seed=%d)\n\n", seed)
	fmt.Fprintf(&sb, "%-22s %7s %9s %9s %7s %8s %9s %8s %8s %9s  %s\n",
		"scenario", "brokers", "delivered", "dropped", "spooled", "virtual", "events", "p50-del", "p99-del", "wall", "digest")
	for _, sc := range Scenarios() {
		res, err := RunScenario(sc.Name, seed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-22s %7d %9d %9d %7d %7.0fms %9d %7dus %7dus %9s  %s…\n",
			sc.Name, len(res.Brokers), res.Ledger.Delivered, res.Ledger.Dropped,
			res.Ledger.FrameSpooled, float64(res.VirtualUS)/1000, res.Events,
			res.LatencyP50US, res.LatencyP99US,
			res.Wall.Round(time.Millisecond), res.Digest.String()[:12])
	}
	sb.WriteString("\nEvery scenario passed its conservation and oracle checks.\n")
	return sb.String(), nil
}

// HealExperiment (A10) runs the broker-death-heal scenario across seeds
// and reports the self-healing numbers: how many dead-link failovers the
// election drove, how many orphaned spool frames were re-routed onto the
// promoted standby edge, and how long (virtual time) the mesh took to
// hand traffic over — all while the oracle holds every delivery
// duplicate-free, loss-free, and in order.
func HealExperiment(seed uint64) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Experiment A10 — broker-death failover and self-healing (base seed=%d)\n\n", seed)
	fmt.Fprintf(&sb, "%-6s %9s %9s %8s %9s %9s %9s  %s\n",
		"seed", "failovers", "rerouted", "spooled", "deliv", "heal_us", "wall", "digest")
	for i := uint64(0); i < 3; i++ {
		s := seed + i
		res, err := RunScenario("broker-death-heal", s)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-6d %9d %9d %8d %9d %9d %9s  %s…\n",
			s, res.Failovers, res.Rerouted, res.Ledger.FrameSpooled,
			res.Ledger.Delivered, res.HealUS,
			res.Wall.Round(time.Millisecond), res.Digest.String()[:12])
	}
	sb.WriteString("\nThe hub broker died mid-stream; the standby ring edge promoted,\n")
	sb.WriteString("the orphaned spools re-routed onto it, and every subscriber's\n")
	sb.WriteString("stream stayed duplicate-free, loss-free, and in order.\n")
	return sb.String(), nil
}

// PartitionExperiment (A11) sweeps the partitioned-scale workload over
// replica counts and reports aggregate throughput: events processed
// across all brokers per virtual second, with delivery-latency
// percentiles. The run errs if 4 replicas fail to reach 3x the single
// broker's aggregate rate — the scenario's acceptance gate, enforced
// here and in the sim tests.
func PartitionExperiment(seed uint64) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Experiment A11 — partitioned scale-out across replicas (seed=%d)\n\n", seed)
	fmt.Fprintf(&sb, "%-9s %10s %10s %9s %12s %9s %9s %9s\n",
		"replicas", "processed", "delivered", "virtual", "events/vsec", "speedup", "p50-del", "p99-del")
	var base float64
	for _, replicas := range []int{1, 2, 4, 8} {
		res, err := RunCluster(PartitionedScale(seed, replicas))
		if err != nil {
			return "", err
		}
		if !res.Ledger.Conserved() {
			return "", fmt.Errorf("sim: partitioned-scale at %d replicas violates copy conservation: %+v", replicas, res.Ledger)
		}
		var processed uint64
		for _, b := range res.Brokers {
			processed += b.Received
		}
		rate := res.AggregateRate()
		if replicas == 1 {
			base = rate
		}
		speedup := rate / base
		fmt.Fprintf(&sb, "%-9d %10d %10d %8.1fms %12.0f %8.2fx %8dus %8dus\n",
			replicas, processed, res.Ledger.Delivered,
			float64(res.VirtualUS)/1000, rate, speedup,
			res.LatencyP50US, res.LatencyP99US)
		if replicas == 4 && speedup < 3 {
			return "", fmt.Errorf("sim: partitioned-scale at 4 replicas reached only %.2fx aggregate throughput (acceptance: >= 3x)", speedup)
		}
	}
	sb.WriteString("\nPublishes fan in to each event's partition owner, so ingress CPU is\n")
	sb.WriteString("spread across the replica group: aggregate forwarded-events per\n")
	sb.WriteString("virtual second scales near-linearly while every copy ledger balances.\n")
	return sb.String(), nil
}

// ScenarioDigests runs every scenario and returns "name seed digest"
// lines — the format of testdata/cluster_digests.txt, consumed by
// scripts/sim_digests.sh for the CI determinism gate.
func ScenarioDigests(seed uint64) (string, error) {
	var sb strings.Builder
	for _, sc := range Scenarios() {
		res, err := RunScenario(sc.Name, seed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%s %d %s\n", sc.Name, seed, res.Digest)
	}
	return sb.String(), nil
}
