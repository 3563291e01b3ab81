package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DropReason classifies why an event was dropped, so every drop site in
// the system maps to exactly one exported series
// (eventsys_node_dropped_events_total{reason=...}). The reasons
// partition NodeStats.Dropped: the per-reason counts always sum to it.
type DropReason uint8

const (
	// DropQueueFull: a bounded queue's drop policy (DropNewest /
	// DropOldest) shed the event at a saturated mailbox, delivery queue
	// or outbound connection queue.
	DropQueueFull DropReason = iota
	// DropInletShed: the broker's core inlet shed an inbound event
	// frame under a drop policy (its credit was repaid to the sender).
	DropInletShed
	// DropControlFull: a control frame was refused by a connection's
	// saturated control channel (a wedged writer); lease renewal
	// repairs any lost subscription state.
	DropControlFull
	// DropConnClosed: the destination connection vanished mid-route and
	// the event had no durable cursor to land in.
	DropConnClosed
	// DropLinkLost: a federation peer link died with undeliverable
	// events in its queue and no spool could absorb them in order.
	DropLinkLost
	// DropStoreError: the durable store failed to append an event that
	// was bound for it.
	DropStoreError
	// DropNoStore: an event needed backlog storage (spill, detached
	// durable subscriber, saturated peer link) but the node runs
	// without a store or the target has no cursor.
	DropNoStore
	// NumDropReasons bounds the reason space (array sizing).
	NumDropReasons
)

// String returns the reason's exported label value.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue_full"
	case DropInletShed:
		return "inlet_shed"
	case DropControlFull:
		return "control_full"
	case DropConnClosed:
		return "conn_closed"
	case DropLinkLost:
		return "link_lost"
	case DropStoreError:
		return "store_error"
	case DropNoStore:
		return "no_store"
	}
	return "unknown"
}

// Counters accumulates per-node event statistics. All methods are safe
// for concurrent use.
type Counters struct {
	received  atomic.Uint64
	matched   atomic.Uint64
	forwarded atomic.Uint64
	delivered atomic.Uint64
	filters   atomic.Int64

	dropped       atomic.Uint64
	droppedBy     [NumDropReasons]atomic.Uint64
	storeAppended atomic.Uint64
	storeReplayed atomic.Uint64
	storedBytes   atomic.Uint64

	stalled       atomic.Uint64
	spilled       atomic.Uint64
	creditGranted atomic.Uint64
	creditWaits   atomic.Uint64

	batchesMatched atomic.Uint64
	batchSizeSum   atomic.Uint64

	peerPropagated atomic.Uint64
	peerSuppressed atomic.Uint64
	peerAbsorbed   atomic.Uint64
	peerForwarded  atomic.Uint64
	peerResyncs    atomic.Uint64
	coverChecks    atomic.Uint64
}

// AddReceived records n events received for filtering.
func (c *Counters) AddReceived(n uint64) { c.received.Add(n) }

// AddMatched records n events that matched at least one local filter.
func (c *Counters) AddMatched(n uint64) { c.matched.Add(n) }

// AddForwarded records n event messages sent to children (one per child
// per event).
func (c *Counters) AddForwarded(n uint64) { c.forwarded.Add(n) }

// AddDelivered records n events delivered to a local subscriber.
func (c *Counters) AddDelivered(n uint64) { c.delivered.Add(n) }

// SetFilters records the current number of filters stored at the node.
func (c *Counters) SetFilters(n int) { c.filters.Store(int64(n)) }

// AddDropped records n messages dropped on the floor — e.g. events
// enqueued for a saturated peer's outbound queue in the networked broker.
//
// Deprecated: use AddDroppedFor with an explicit reason; this records
// under DropQueueFull, the historical meaning of most call sites.
func (c *Counters) AddDropped(n uint64) { c.AddDroppedFor(DropQueueFull, n) }

// AddDroppedFor records n messages dropped for the given reason. The
// total (Dropped) and the per-reason count move together, so the
// reason-labeled series always sum to the total.
func (c *Counters) AddDroppedFor(r DropReason, n uint64) {
	if r >= NumDropReasons {
		r = DropQueueFull
	}
	c.dropped.Add(n)
	c.droppedBy[r].Add(n)
}

// AddStoreAppended records n events appended to the durable store on
// behalf of this node's subscription.
func (c *Counters) AddStoreAppended(n uint64) { c.storeAppended.Add(n) }

// AddStoreReplayed records n events replayed from the durable store.
func (c *Counters) AddStoreReplayed(n uint64) { c.storeReplayed.Add(n) }

// AddStoredBytes records n bytes written to the durable store.
func (c *Counters) AddStoredBytes(n uint64) { c.storedBytes.Add(n) }

// AddStalled records n times a Block-policy queue made a producer wait
// for space — the footprint of lossless backpressure in action.
func (c *Counters) AddStalled(n uint64) { c.stalled.Add(n) }

// AddSpilled records n events a saturated queue diverted to backlog
// storage (the durable store or a bounded in-memory backlog) under the
// SpillToStore policy, to be replayed in order later.
func (c *Counters) AddSpilled(n uint64) { c.spilled.Add(n) }

// AddCreditGranted records n event credits granted to senders on this
// node's connections (credit-based flow control).
func (c *Counters) AddCreditGranted(n uint64) { c.creditGranted.Add(n) }

// AddCreditWaits records n times an outbound writer ran out of credit
// and had to wait for a grant — upstream throttling in action.
func (c *Counters) AddCreditWaits(n uint64) { c.creditWaits.Add(n) }

// AddBatchesMatched records one batched matching pass over the node's
// table (a batch of one still counts: BatchSizeSum/BatchesMatched is the
// observed average coalescing).
func (c *Counters) AddBatchesMatched(n uint64) { c.batchesMatched.Add(n) }

// AddBatchSizeSum records the number of events carried by matched batches.
func (c *Counters) AddBatchSizeSum(n uint64) { c.batchSizeSum.Add(n) }

// AddPeerPropagated records n subscription entries propagated to peer
// links on the federation plane.
func (c *Counters) AddPeerPropagated(n uint64) { c.peerPropagated.Add(n) }

// AddPeerSuppressed records n subscription entries pruned by covering
// instead of propagated (the federation plane's state economy).
func (c *Counters) AddPeerSuppressed(n uint64) { c.peerSuppressed.Add(n) }

// AddPeerAbsorbed records n local subscriptions absorbed because one of
// the subscriber's own filters already covers them: they add no matches
// and are not propagated.
func (c *Counters) AddPeerAbsorbed(n uint64) { c.peerAbsorbed.Add(n) }

// AddCoverChecks records n exact covering checks run by the federation
// plane's absorb and pruning queries — what the covering index did not
// skip.
func (c *Counters) AddCoverChecks(n uint64) { c.coverChecks.Add(n) }

// AddPeerForwarded records n events forwarded to peer links.
func (c *Counters) AddPeerForwarded(n uint64) { c.peerForwarded.Add(n) }

// AddPeerResyncs records n peer-link resyncs (SubSet exchanges after a
// link is established or re-established).
func (c *Counters) AddPeerResyncs(n uint64) { c.peerResyncs.Add(n) }

// Received returns the events-received count.
func (c *Counters) Received() uint64 { return c.received.Load() }

// Matched returns the events-matched count.
func (c *Counters) Matched() uint64 { return c.matched.Load() }

// Forwarded returns the forwarded-copies count.
func (c *Counters) Forwarded() uint64 { return c.forwarded.Load() }

// Delivered returns the delivered-events count.
func (c *Counters) Delivered() uint64 { return c.delivered.Load() }

// Dropped returns the dropped-messages count (all reasons).
func (c *Counters) Dropped() uint64 { return c.dropped.Load() }

// DroppedFor returns the dropped-messages count for one reason.
func (c *Counters) DroppedFor(r DropReason) uint64 {
	if r >= NumDropReasons {
		return 0
	}
	return c.droppedBy[r].Load()
}

// StoreAppended returns the events-appended-to-store count.
func (c *Counters) StoreAppended() uint64 { return c.storeAppended.Load() }

// StoreReplayed returns the events-replayed-from-store count.
func (c *Counters) StoreReplayed() uint64 { return c.storeReplayed.Load() }

// StoredBytes returns the bytes-written-to-store count.
func (c *Counters) StoredBytes() uint64 { return c.storedBytes.Load() }

// Stalled returns the blocked-producer count (Block-policy waits).
func (c *Counters) Stalled() uint64 { return c.stalled.Load() }

// Spilled returns the events-diverted-to-backlog count (SpillToStore).
func (c *Counters) Spilled() uint64 { return c.spilled.Load() }

// CreditGranted returns the event credits granted to senders.
func (c *Counters) CreditGranted() uint64 { return c.creditGranted.Load() }

// CreditWaits returns how often outbound writers waited for credit.
func (c *Counters) CreditWaits() uint64 { return c.creditWaits.Load() }

// BatchesMatched returns the batched-matching-pass count.
func (c *Counters) BatchesMatched() uint64 { return c.batchesMatched.Load() }

// BatchSizeSum returns the total events carried by matched batches.
func (c *Counters) BatchSizeSum() uint64 { return c.batchSizeSum.Load() }

// PeerPropagated returns the peer-subscription-entries-propagated count.
func (c *Counters) PeerPropagated() uint64 { return c.peerPropagated.Load() }

// PeerSuppressed returns the covering-pruned peer-entry count.
func (c *Counters) PeerSuppressed() uint64 { return c.peerSuppressed.Load() }

// PeerAbsorbed returns the count of local subscriptions absorbed by the
// subscriber's own filters.
func (c *Counters) PeerAbsorbed() uint64 { return c.peerAbsorbed.Load() }

// CoverChecks returns the exact-covering-check count.
func (c *Counters) CoverChecks() uint64 { return c.coverChecks.Load() }

// PeerForwarded returns the events-forwarded-to-peer-links count.
func (c *Counters) PeerForwarded() uint64 { return c.peerForwarded.Load() }

// PeerResyncs returns the peer-link-resync count.
func (c *Counters) PeerResyncs() uint64 { return c.peerResyncs.Load() }

// Filters returns the recorded stored-filter count.
func (c *Counters) Filters() int { return int(c.filters.Load()) }

// Stats assembles a snapshot of the counters under the given identity.
func (c *Counters) Stats(nodeID string, stage int) NodeStats {
	var by [NumDropReasons]uint64
	for r := range by {
		by[r] = c.droppedBy[r].Load()
	}
	return NodeStats{
		NodeID:         nodeID,
		Stage:          stage,
		Filters:        c.Filters(),
		Received:       c.Received(),
		Matched:        c.Matched(),
		Forwarded:      c.Forwarded(),
		Delivered:      c.Delivered(),
		Dropped:        c.Dropped(),
		DroppedBy:      by,
		StoreAppended:  c.StoreAppended(),
		StoreReplayed:  c.StoreReplayed(),
		StoredBytes:    c.StoredBytes(),
		Stalled:        c.Stalled(),
		Spilled:        c.Spilled(),
		CreditGranted:  c.CreditGranted(),
		CreditWaits:    c.CreditWaits(),
		BatchesMatched: c.BatchesMatched(),
		BatchSizeSum:   c.BatchSizeSum(),
		PeerPropagated: c.PeerPropagated(),
		PeerSuppressed: c.PeerSuppressed(),
		PeerAbsorbed:   c.PeerAbsorbed(),
		PeerForwarded:  c.PeerForwarded(),
		PeerResyncs:    c.PeerResyncs(),
		CoverChecks:    c.CoverChecks(),
	}
}

// NodeStats is an immutable snapshot of one node's counters.
type NodeStats struct {
	NodeID    string
	Stage     int
	Filters   int
	Received  uint64
	Matched   uint64
	Forwarded uint64
	Delivered uint64
	// Dropped counts messages lost at this node: events bound for a
	// saturated peer's outbound queue in the networked broker, or events
	// evicted from a bounded in-memory durable backlog. DroppedBy breaks
	// the same total down by DropReason (indexed by reason; the entries
	// always sum to Dropped), so the conservation identity published ==
	// delivered + dropped + stored can be audited per cause.
	Dropped   uint64
	DroppedBy [NumDropReasons]uint64
	// StoreAppended, StoreReplayed and StoredBytes describe the node's
	// durable-store traffic: events persisted for detached durable
	// subscriptions, events replayed from the store on Resume or after a
	// restart, and the bytes written doing so.
	StoreAppended uint64
	StoreReplayed uint64
	StoredBytes   uint64
	// Stalled, Spilled, CreditGranted and CreditWaits describe the
	// node's flow control: producers made to wait by a Block-policy
	// queue, events diverted to backlog storage by SpillToStore, event
	// credits granted to senders, and outbound writers that ran dry and
	// waited for a grant. Together with Dropped they tell which layer
	// absorbed an overload and how.
	Stalled       uint64
	Spilled       uint64
	CreditGranted uint64
	CreditWaits   uint64
	// BatchesMatched and BatchSizeSum describe the node's batched
	// matching passes: BatchSizeSum/BatchesMatched is the average number
	// of events coalesced per pass (1.0 means batching never kicked in).
	BatchesMatched uint64
	BatchSizeSum   uint64
	// PeerPropagated, PeerSuppressed, PeerAbsorbed, PeerForwarded and
	// PeerResyncs describe the node's federation plane: subscription
	// entries sent to peer brokers, entries pruned by covering instead
	// (state economy), local subscriptions absorbed by their subscriber's
	// own filters, events forwarded along peer links, and link resyncs
	// performed. CoverChecks counts the exact covering checks the absorb
	// and pruning queries ran; per subscription it stays flat as a
	// subscriber's filters grow when the covering index is doing its job.
	PeerPropagated uint64
	PeerSuppressed uint64
	PeerAbsorbed   uint64
	PeerForwarded  uint64
	PeerResyncs    uint64
	CoverChecks    uint64
}

// LC returns the load complexity of the node (Section 5.1).
func (s NodeStats) LC() float64 { return float64(s.Received) * float64(s.Filters) }

// RLC returns the relative load complexity given the system-wide totals.
// It reports 0 when either total is zero.
func (s NodeStats) RLC(totalEvents, totalSubs uint64) float64 {
	denom := float64(totalEvents) * float64(totalSubs)
	if denom == 0 {
		return 0
	}
	return s.LC() / denom
}

// MR returns the matching rate; nodes that received nothing report 0.
func (s NodeStats) MR() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.Matched) / float64(s.Received)
}

// Collector tracks counters for a set of nodes. The zero value is ready
// to use; it is safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	nodes map[string]*entry
}

type entry struct {
	stage    int
	counters Counters
}

// Counters returns (creating if needed) the counters of the identified
// node at the given stage.
func (c *Collector) Counters(nodeID string, stage int) *Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes == nil {
		c.nodes = make(map[string]*entry)
	}
	e, ok := c.nodes[nodeID]
	if !ok {
		e = &entry{stage: stage}
		c.nodes[nodeID] = e
	}
	return &e.counters
}

// Snapshot returns the current statistics of every node, ordered by stage
// descending (top of the hierarchy first) then node ID.
func (c *Collector) Snapshot() []NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStats, 0, len(c.nodes))
	for id, e := range c.nodes {
		out = append(out, e.counters.Stats(id, e.stage))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage > out[j].Stage
		}
		return out[i].NodeID < out[j].NodeID
	})
	return out
}

// StageSummary aggregates statistics over all nodes of one stage, in the
// shape of the paper's Section 5.3 table: the node average of RLC and the
// stage total ("total node avg of RLC" = average × node count = stage sum).
//
// AvgMR averages the matching rate over active nodes only (nodes that
// received at least one event): MR is undefined for idle nodes, and the
// clustering placement deliberately leaves parts of the hierarchy idle.
type StageSummary struct {
	Stage       int
	Nodes       int
	ActiveNodes int
	Filters     int
	Received    uint64
	Matched     uint64
	AvgRLC      float64
	TotalRLC    float64
	AvgMR       float64
}

// Summarize groups node statistics by stage. totalEvents and totalSubs
// are the system-wide denominators of RLC.
func Summarize(stats []NodeStats, totalEvents, totalSubs uint64) []StageSummary {
	byStage := make(map[int]*StageSummary)
	mrSums := make(map[int]float64)
	for _, s := range stats {
		sum, ok := byStage[s.Stage]
		if !ok {
			sum = &StageSummary{Stage: s.Stage}
			byStage[s.Stage] = sum
		}
		sum.Nodes++
		sum.Filters += s.Filters
		sum.Received += s.Received
		sum.Matched += s.Matched
		sum.TotalRLC += s.RLC(totalEvents, totalSubs)
		if s.Received > 0 {
			sum.ActiveNodes++
			mrSums[s.Stage] += s.MR()
		}
	}
	out := make([]StageSummary, 0, len(byStage))
	for stage, sum := range byStage {
		sum.AvgRLC = sum.TotalRLC / float64(sum.Nodes)
		if sum.ActiveNodes > 0 {
			sum.AvgMR = mrSums[stage] / float64(sum.ActiveNodes)
		}
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// GlobalRLC sums RLC over every node: the paper's global-total claim is
// that this is ≈ 1, i.e. multi-stage filtering performs no more total
// work than a centralized server.
func GlobalRLC(stats []NodeStats, totalEvents, totalSubs uint64) float64 {
	var total float64
	for _, s := range stats {
		total += s.RLC(totalEvents, totalSubs)
	}
	return total
}

// RenderRLCTable renders stage summaries in the layout of the paper's
// Section 5.3 table.
func RenderRLCTable(summaries []StageSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %9s %16s %20s %10s\n",
		"Stage", "Nodes", "Filters", "Node avg of RLC", "Total node avg RLC", "Avg MR")
	for _, s := range summaries {
		fmt.Fprintf(&b, "%-6d %8d %9d %16s %20s %10.3f\n",
			s.Stage, s.Nodes, s.Filters, sci(s.AvgRLC), sci(s.TotalRLC), s.AvgMR)
	}
	return b.String()
}

// RenderMRSeries renders the per-node matching rate series of Figure 7:
// one "processID  stage  MR" row per node, ordered by stage then ID.
func RenderMRSeries(stats []NodeStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %8s\n", "Process", "Stage", "MR")
	sorted := make([]NodeStats, len(stats))
	copy(sorted, stats)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Stage != sorted[j].Stage {
			return sorted[i].Stage < sorted[j].Stage
		}
		return sorted[i].NodeID < sorted[j].NodeID
	})
	for _, s := range sorted {
		fmt.Fprintf(&b, "%-10s %-6d %8.3f\n", s.NodeID, s.Stage, s.MR())
	}
	return b.String()
}

// sci formats small floats in compact scientific-style notation matching
// the paper's table (e.g. 2e-07, 0.1).
func sci(f float64) string {
	if f != 0 && (f < 1e-3 || f >= 1e6) {
		return fmt.Sprintf("%.1e", f)
	}
	return fmt.Sprintf("%.4g", f)
}
