// Package sim is the deterministic simulator reproducing the paper's
// evaluation (Section 5): a four-level hierarchy (1 stage-3 root, 10
// stage-2 nodes, 100 stage-1 nodes, N subscribers at stage 0) filtering
// pseudo-randomly generated bibliographic events, measured with the LC,
// RLC and MR metrics of Section 5.1.
//
// The simulator drives the same routing.Node core as the concurrent
// overlay and the TCP brokers, single-threaded and fully seeded, so every
// number in EXPERIMENTS.md is reproducible.
//
// Beyond the paper's hierarchy harness, the package holds a
// discrete-event cluster simulator (cluster.go): federated brokers built
// from the real routing, peering, and flow code, run under a virtual
// clock (clock.go) with simulated links, fault injection (fault.go), and
// RNG partitioned per subsystem (rng.go) so one seed reproduces a run
// bit for bit. Delivery traces hash into a digest (digest.go); the
// scenario suite (scenario.go) pins those digests as golden files and CI
// re-checks them on every push — see docs/ARCHITECTURE.md, "Simulation".
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"eventsys/internal/baseline"
	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/metrics"
	"eventsys/internal/routing"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
	"eventsys/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Fanouts lists broker counts per stage from the top down; the paper
	// uses {1, 10, 100}. The hierarchy has len(Fanouts) broker stages.
	Fanouts []int
	// Subscribers is the stage-0 population size.
	Subscribers int
	// Events is the number of events published at the root.
	Events int
	// Biblio configures the workload; the zero value selects
	// workload.DefaultBiblio().
	Biblio workload.BiblioConfig
	// WildcardProb leaves attributes unspecified in subscriptions
	// (Section 4.4).
	WildcardProb float64
	// Anchor generates subscriptions correlated with traffic (see
	// workload.Biblio.Subscription); the paper's evaluation implies
	// subscriptions that match real events.
	Anchor bool
	// StageAttrs overrides the advertisement's attribute-stage
	// association. Length must be len(Fanouts)+1 (stages 0..top). The
	// default reproduces Section 5.2: stage-1 drops title, stage-2 drops
	// author, stage-3 keeps year only.
	StageAttrs []int
	// RandomPlacement disables the covering-search clustering of the
	// Figure 5 protocol: subscribers descend randomly to a stage-1 node.
	// Used by the placement ablation (A1).
	RandomPlacement bool
	// Validate cross-checks delivery against an exhaustive oracle and
	// against the centralized baseline (slower).
	Validate bool
}

// DefaultConfig returns the paper's Section 5.2 setup with the given
// subscriber population.
func DefaultConfig(seed uint64, subscribers, events int) Config {
	return Config{
		Seed:        seed,
		Fanouts:     []int{1, 10, 100},
		Subscribers: subscribers,
		Events:      events,
		Biblio:      workload.DefaultBiblio(),
		Anchor:      true,
		// Section 5.2: stage-3 keeps year; stage-2 year+conference;
		// stage-1 adds author; stage-0 the full filter.
		StageAttrs: []int{4, 3, 2, 1},
	}
}

// Result carries the measurements of a run.
type Result struct {
	// Stats holds one snapshot per broker and subscriber.
	Stats []metrics.NodeStats
	// Summaries aggregates Stats per stage.
	Summaries []metrics.StageSummary
	// GlobalRLC is the sum of RLC over all nodes (paper claim: ≈ 1).
	GlobalRLC float64
	// TotalEvents and TotalSubs are the RLC denominators.
	TotalEvents, TotalSubs uint64
	// Delivered counts deliveries to subscribers (after perfect edge
	// filtering).
	Delivered uint64
	// SubscriberAvgMR is the average matching rate over subscribers that
	// received at least one event (paper: 0.87). MR is undefined for a
	// subscriber that never received anything.
	SubscriberAvgMR float64
	// BrokerFilters is the total number of filters stored at brokers.
	BrokerFilters int
	// ForwardTotal is the total number of broker-to-broker/subscriber
	// event copies sent.
	ForwardTotal uint64
	// Duplicates counts duplicate (event, subscriber) deliveries; must
	// be zero.
	Duplicates int
	// FalseNegatives counts events a subscriber wanted but never
	// received (oracle check, Validate only); must be zero.
	FalseNegatives int
	// OracleDisagreements counts mismatches against the centralized
	// baseline (Validate only); must be zero.
	OracleDisagreements int
}

// simulator holds the live state of a run.
type simulator struct {
	cfg       Config
	rng       *rand.Rand
	bib       *workload.Biblio
	weakener  *weaken.Weakener
	collector *metrics.Collector
	nodes     map[routing.NodeID]*routing.Node
	root      *routing.Node
	// subscriber state
	subFilters map[routing.NodeID]*filter.Filter
	delivered  map[routing.NodeID]map[uint64]int
	oracle     *baseline.Centralized
	now        time.Time
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.placeSubscribers()
	return s.publishAll()
}

func build(cfg Config) (*simulator, error) {
	if len(cfg.Fanouts) == 0 {
		return nil, fmt.Errorf("sim: at least one broker stage required")
	}
	for i, n := range cfg.Fanouts {
		if n <= 0 {
			return nil, fmt.Errorf("sim: fanout[%d] = %d, want > 0", i, n)
		}
	}
	if cfg.Subscribers <= 0 || cfg.Events <= 0 {
		return nil, fmt.Errorf("sim: need positive subscribers and events, got %d/%d",
			cfg.Subscribers, cfg.Events)
	}
	if cfg.Biblio == (workload.BiblioConfig{}) {
		cfg.Biblio = workload.DefaultBiblio()
	}
	bib, err := workload.NewBiblio(cfg.Seed, cfg.Biblio)
	if err != nil {
		return nil, err
	}
	stages := len(cfg.Fanouts)
	ad, err := bib.Generator().Advertisement(stages + 1)
	if err != nil {
		return nil, err
	}
	if cfg.StageAttrs != nil {
		if len(cfg.StageAttrs) != stages+1 {
			return nil, fmt.Errorf("sim: StageAttrs needs %d entries, got %d", stages+1, len(cfg.StageAttrs))
		}
		ad.StageAttrs = append([]int(nil), cfg.StageAttrs...)
		if err := ad.Validate(); err != nil {
			return nil, err
		}
	}
	var ads typing.AdvertisementSet
	if err := ads.Put(ad); err != nil {
		return nil, err
	}
	s := &simulator{
		cfg:        cfg,
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x5eed)),
		bib:        bib,
		weakener:   weaken.New(&ads, nil),
		collector:  &metrics.Collector{},
		nodes:      make(map[routing.NodeID]*routing.Node),
		subFilters: make(map[routing.NodeID]*filter.Filter),
		delivered:  make(map[routing.NodeID]map[uint64]int),
		now:        time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	s.buildHierarchy()
	if cfg.Validate {
		s.oracle = baseline.NewCentralized(nil, nil)
	}
	return s, nil
}

// buildHierarchy instantiates brokers per Fanouts: Fanouts[0] nodes at the
// top stage, children spread evenly under the level above.
func (s *simulator) buildHierarchy() {
	stages := len(s.cfg.Fanouts)
	ids := make([][]routing.NodeID, stages) // ids[i] = nodes at Fanouts[i]
	for level, count := range s.cfg.Fanouts {
		stage := stages - level
		ids[level] = make([]routing.NodeID, count)
		for i := 0; i < count; i++ {
			ids[level][i] = routing.NodeID(fmt.Sprintf("N%d.%d", stage, i+1))
		}
	}
	for level, count := range s.cfg.Fanouts {
		stage := stages - level
		for i := 0; i < count; i++ {
			id := ids[level][i]
			var parent routing.NodeID
			if level > 0 {
				above := len(ids[level-1])
				parent = ids[level-1][i*above/count]
			}
			var children []routing.NodeID
			if level+1 < stages {
				below := len(ids[level+1])
				for j := 0; j < below; j++ {
					if j*count/below == i {
						children = append(children, ids[level+1][j])
					}
				}
			}
			n := routing.NewNode(routing.Config{
				ID: id, Stage: stage, Parent: parent, Children: children,
				Weakener: s.weakener,
				Counters: s.collector.Counters(string(id), stage),
			})
			s.nodes[id] = n
			if parent == "" && stage == stages {
				s.root = n
			}
		}
	}
}

// placeSubscribers runs the Figure 5 protocol (or random placement for
// the ablation) for every subscriber.
func (s *simulator) placeSubscribers() {
	stage1 := s.stage1Nodes()
	for i := 0; i < s.cfg.Subscribers; i++ {
		sid := routing.NodeID(fmt.Sprintf("S%04d", i))
		f := s.bib.Subscription(s.cfg.WildcardProb, s.cfg.Anchor)
		s.subFilters[sid] = f
		// The subscriber runtime holds its own (single) original filter —
		// the stage-0 "perfect filtering" work the paper's table counts.
		s.collector.Counters(string(sid), 0).SetFilters(1)
		if s.oracle != nil {
			s.oracle.Subscribe(string(sid), f)
		}
		if s.cfg.RandomPlacement {
			s.placeRandom(sid, f, stage1)
			continue
		}
		s.placeProtocol(sid, f)
	}
}

func (s *simulator) stage1Nodes() []routing.NodeID {
	level := len(s.cfg.Fanouts) - 1
	count := s.cfg.Fanouts[level]
	out := make([]routing.NodeID, count)
	for i := 0; i < count; i++ {
		out[i] = routing.NodeID(fmt.Sprintf("N1.%d", i+1))
	}
	return out
}

// placeProtocol walks the subscription down from the root per Figure 5.
func (s *simulator) placeProtocol(sid routing.NodeID, f *filter.Filter) {
	cur := s.root
	for hop := 0; hop < len(s.cfg.Fanouts)+2; hop++ {
		res := cur.HandleSubscribe(f, sid, s.rng, s.now)
		if res.Action == routing.ActionRedirect {
			cur = s.nodes[res.Target]
			continue
		}
		s.propagateUp(cur, res.Up)
		return
	}
	panic("sim: subscription placement did not terminate")
}

// placeRandom attaches the subscriber at a uniformly random stage-1 node
// (the ablation baseline for A1).
func (s *simulator) placeRandom(sid routing.NodeID, f *filter.Filter, stage1 []routing.NodeID) {
	n := s.nodes[stage1[s.rng.IntN(len(stage1))]]
	res := n.HandleSubscribe(f, sid, s.rng, s.now) // stage-1 always accepts
	s.propagateUp(n, res.Up)
}

func (s *simulator) propagateUp(from *routing.Node, up *filter.Filter) {
	at := from
	for up != nil && !at.IsRoot() {
		parent := s.nodes[at.Parent()]
		up = parent.HandleReqInsert(up, at.ID(), s.now)
		at = parent
	}
}

// publishAll drives every event through the hierarchy and assembles the
// result.
func (s *simulator) publishAll() (*Result, error) {
	type frame struct {
		node *routing.Node
		ev   *event.Event
	}
	res := &Result{
		TotalEvents: uint64(s.cfg.Events),
		TotalSubs:   uint64(s.cfg.Subscribers),
	}
	stack := make([]frame, 0, 64)
	for i := 0; i < s.cfg.Events; i++ {
		e := s.bib.Event()
		var oracleIDs []string
		if s.oracle != nil {
			oracleIDs = s.oracle.Publish(e)
		}
		gotIDs := make(map[string]bool)
		stack = append(stack[:0], frame{node: s.root, ev: e})
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range fr.node.HandleEvent(fr.ev) {
				if child, ok := s.nodes[id]; ok {
					stack = append(stack, frame{node: child, ev: fr.node.TransformEventFor(e, child.Stage())})
					continue
				}
				s.deliver(id, e, gotIDs, res)
			}
		}
		if s.oracle != nil {
			for _, want := range oracleIDs {
				if !gotIDs[want] {
					res.FalseNegatives++
				}
			}
			if len(oracleIDs) != len(gotIDs) {
				res.OracleDisagreements++
			}
		}
	}
	s.finishResult(res)
	return res, nil
}

// deliver runs the subscriber runtime: perfect filtering with the
// original subscription on the full event (Figure 3's end-to-end stage).
func (s *simulator) deliver(sid routing.NodeID, e *event.Event, gotIDs map[string]bool, res *Result) {
	c := s.collector.Counters(string(sid), 0)
	c.AddReceived(1)
	f := s.subFilters[sid]
	if f == nil || !f.Matches(e, nil) {
		return
	}
	c.AddMatched(1)
	c.AddDelivered(1)
	res.Delivered++
	if gotIDs[string(sid)] {
		res.Duplicates++
	}
	gotIDs[string(sid)] = true
	if s.cfg.Validate {
		if s.delivered[sid] == nil {
			s.delivered[sid] = make(map[uint64]int)
		}
		s.delivered[sid][e.ID]++
	}
}

func (s *simulator) finishResult(res *Result) {
	res.Stats = s.collector.Snapshot()
	res.Summaries = metrics.Summarize(res.Stats, res.TotalEvents, res.TotalSubs)
	res.GlobalRLC = metrics.GlobalRLC(res.Stats, res.TotalEvents, res.TotalSubs)
	var mrSum float64
	var active int
	for _, st := range res.Stats {
		if st.Stage == 0 {
			if st.Received > 0 {
				mrSum += st.MR()
				active++
			}
		} else {
			res.BrokerFilters += st.Filters
			res.ForwardTotal += st.Forwarded
		}
	}
	if active > 0 {
		res.SubscriberAvgMR = mrSum / float64(active)
	}
}

// SubscriberFilters exposes the generated subscriptions (tests and
// experiments reuse them for baselines).
func SubscriberFilters(cfg Config) (map[string]*filter.Filter, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.placeSubscribers()
	out := make(map[string]*filter.Filter, len(s.subFilters))
	for id, f := range s.subFilters {
		out[string(id)] = f
	}
	return out, nil
}
