package routing

import (
	"math/rand/v2"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/index"
	"eventsys/internal/metrics"
	"eventsys/internal/weaken"
)

// Config assembles a broker node.
type Config struct {
	// ID is the node's identity in the overlay.
	ID NodeID
	// Stage is the node's filtering stage (1 = closest to subscribers;
	// the root carries the highest stage). Stage 0 is the subscriber
	// runtime, which is not a Node.
	Stage int
	// Parent is the node's parent, empty for the root.
	Parent NodeID
	// Children are the broker children (used for random placement
	// descent; subscriber associations are added dynamically).
	Children []NodeID
	// TTL is the subscription lease renewal period. Associations expire
	// after 3×TTL without renewal (Section 4.3). Zero disables expiry.
	TTL time.Duration
	// Conf resolves event type conformance; nil means exact matching.
	Conf filter.Conformance
	// Weakener derives stage filters/events; nil constructs a schema-less
	// weakener (class-only filters above stage 0).
	Weakener *weaken.Weakener
	// Counters receives the node's statistics; nil allocates private
	// counters.
	Counters *metrics.Counters
	// Engine selects and parameterizes the matching engine. The zero
	// value names the indexed table; Engine.Conf defaults to this node's
	// Conf when left nil.
	Engine index.Config
}

// Node is a broker in the multi-stage hierarchy. It is pure logic, not
// safe for concurrent use; runtimes serialize access per node.
type Node struct {
	id       NodeID
	stage    int
	parent   NodeID
	children map[NodeID]bool
	childIDs []NodeID
	ttl      time.Duration
	conf     filter.Conformance
	weak     *weaken.Weakener
	table    *Table
	counters *metrics.Counters
}

// NewNode builds a node from the configuration.
func NewNode(cfg Config) *Node {
	n := &Node{
		id:       cfg.ID,
		stage:    cfg.Stage,
		parent:   cfg.Parent,
		children: make(map[NodeID]bool, len(cfg.Children)),
		ttl:      cfg.TTL,
		conf:     cfg.Conf,
		weak:     cfg.Weakener,
		counters: cfg.Counters,
	}
	if n.conf == nil {
		n.conf = filter.ExactTypes{}
	}
	if n.weak == nil {
		n.weak = weaken.New(nil, n.conf)
	}
	if n.counters == nil {
		n.counters = &metrics.Counters{}
	}
	ecfg := cfg.Engine
	if ecfg.Conf == nil {
		ecfg.Conf = n.conf
	}
	n.table = NewTable(ecfg)
	for _, c := range cfg.Children {
		n.children[c] = true
		n.childIDs = append(n.childIDs, c)
	}
	return n
}

// ID returns the node identity.
func (n *Node) ID() NodeID { return n.id }

// Stage returns the node's filtering stage.
func (n *Node) Stage() int { return n.stage }

// Parent returns the node's parent ID ("" at the root).
func (n *Node) Parent() NodeID { return n.parent }

// IsRoot reports whether the node has no parent.
func (n *Node) IsRoot() bool { return n.parent == "" }

// Table exposes the routing table (primarily for inspection and tests).
func (n *Node) Table() *Table { return n.table }

// Counters exposes the node's statistics counters.
func (n *Node) Counters() *metrics.Counters { return n.counters }

// leaseExpiry computes the lease deadline for an association created or
// renewed at now: 3×TTL per Section 4.3 ("REMOVE INVALID FILTERS at the
// end of each 3×TTL periods").
func (n *Node) leaseExpiry(now time.Time) time.Time {
	if n.ttl == 0 {
		// Effectively immortal.
		return now.Add(100 * 365 * 24 * time.Hour)
	}
	return now.Add(3 * n.ttl)
}

// SubscribeAction tells the subscriber what to do next in the Figure 5
// placement protocol.
type SubscribeAction int

const (
	// ActionRedirect: re-send the subscription to Target (join-At).
	ActionRedirect SubscribeAction = iota + 1
	// ActionAccept: the subscriber joined this node (accepted-At).
	ActionAccept
)

// SubscribeResult is the node's response to a Subscription(fsub) message.
type SubscribeResult struct {
	Action SubscribeAction
	// Target is the child to re-send the subscription to (redirect only).
	Target NodeID
	// Stored is the weakened filter this node stored for the subscriber
	// (accept only); the subscriber renews this filter.
	Stored *filter.Filter
	// Up is the filter to req-Insert at the parent (accept only, nil at
	// the root or when the stored filter was already known).
	Up *filter.Filter
}

// HandleSubscribe implements the node side of the Figure 5(b) automaton
// for a Subscription(fsub) received from subscriber sid. rng drives the
// random descent (step 3); now drives lease creation on acceptance.
func (n *Node) HandleSubscribe(fsub *filter.Filter, sid NodeID, rng *rand.Rand, now time.Time) SubscribeResult {
	fstd := n.standardize(fsub)
	if n.stage > 1 {
		// Step 2: strongest stored covering filter wins; only broker
		// children are valid redirect targets.
		if target, ok := n.table.FindCovering(fstd, n.conf, func(id NodeID) bool { return n.children[id] }); ok {
			return SubscribeResult{Action: ActionRedirect, Target: target}
		}
		// Step 3: wildcard subscriptions attach at the stage just above
		// the top stage using their most general wildcard attribute.
		if wilds := fstd.WildcardAttrs(); len(wilds) > 0 {
			if insertStage, ok := n.wildcardInsertStage(fstd, wilds); ok {
				if n.stage == insertStage {
					return n.insertSubscriber(fstd, sid, now)
				}
				// Descend toward the insert stage (or stage 1 if the
				// computed stage is below us on this path).
			}
		}
		if len(n.childIDs) == 0 {
			// Degenerate hierarchy (no broker children): accept here.
			return n.insertSubscriber(fstd, sid, now)
		}
		child := n.childIDs[rng.IntN(len(n.childIDs))]
		return SubscribeResult{Action: ActionRedirect, Target: child}
	}
	// Step 4: stage-1 nodes accept the subscriber.
	return n.insertSubscriber(fstd, sid, now)
}

// SubscribeLocal accepts a subscription at this node unconditionally,
// bypassing the Figure 5 placement walk. Consumer groups need this:
// every member must land at the broker it dialed, or one group would
// split across brokers into independently-consuming halves.
func (n *Node) SubscribeLocal(fsub *filter.Filter, sid NodeID, now time.Time) SubscribeResult {
	return n.insertSubscriber(n.standardize(fsub), sid, now)
}

// standardize converts fsub to the standard subscription filter format
// (Section 4.4) when the class is advertised.
func (n *Node) standardize(fsub *filter.Filter) *filter.Filter {
	if n.weak == nil || n.weak.Ads == nil || fsub.Class == "" {
		return fsub
	}
	ad, ok := n.weak.Ads.Get(fsub.Class)
	if !ok {
		return fsub
	}
	return fsub.Standardize(filter.SchemaOf(ad.Attrs...))
}

// wildcardInsertStage computes the stage at which a wildcard subscription
// should attach: one above the top stage at which its most general
// wildcard attribute is still used (HANDLE-WILDCARD-SUBS, Section 4.5),
// clamped to this hierarchy's stages.
func (n *Node) wildcardInsertStage(fstd *filter.Filter, wilds []string) (int, bool) {
	if n.weak == nil || n.weak.Ads == nil || fstd.Class == "" {
		return 0, false
	}
	ad, ok := n.weak.Ads.Get(fstd.Class)
	if !ok {
		return 0, false
	}
	// The standard form orders attributes most general first, so the
	// first wildcard in it is the most general one.
	attrMG := wilds[0]
	top, ok := ad.TopStageFor(attrMG)
	if !ok {
		return 0, false
	}
	insert := top + 1
	if insert < 1 {
		insert = 1
	}
	if insert > n.stage {
		insert = n.stage // clamp: cannot attach above the current path
	}
	return insert, true
}

// insertSubscriber is INSERT-SUBSCRIBER of Figure 5(b): store the filter
// weakened for this stage against the subscriber ID, and compute the
// further-weakened filter to req-Insert at the parent.
func (n *Node) insertSubscriber(fstd *filter.Filter, sid NodeID, now time.Time) SubscribeResult {
	stored := n.weak.Filter(fstd, n.stage)
	isNew := n.insert(stored, sid, now)
	res := SubscribeResult{Action: ActionAccept, Stored: stored}
	if !n.IsRoot() && isNew {
		res.Up = n.weak.Filter(fstd, n.stage+1)
	}
	return res
}

// HandleReqInsert processes req-Insert(fc, child): store the association
// and return the filter to propagate to the parent (nil at the root or
// when fc was already stored, in which case the parent already knows).
func (n *Node) HandleReqInsert(fc *filter.Filter, child NodeID, now time.Time) (up *filter.Filter) {
	isNew := n.insert(fc, child, now)
	if n.IsRoot() || !isNew {
		return nil
	}
	return n.weak.Filter(fc, n.stage+1)
}

// insert adds the association and reports whether the filter itself was
// new to the table.
func (n *Node) insert(f *filter.Filter, id NodeID, now time.Time) bool {
	before := n.table.Len()
	n.table.Insert(f, id, n.leaseExpiry(now))
	n.counters.SetFilters(n.table.Len())
	return n.table.Len() > before
}

// HandleRenew refreshes the lease on (f, id); it reports whether the
// association was known (a false result tells the sender to re-subscribe).
func (n *Node) HandleRenew(f *filter.Filter, id NodeID, now time.Time) bool {
	return n.table.Renew(f, id, n.leaseExpiry(now))
}

// HandleUnsubscribe removes the association immediately (the explicit
// complement of lease expiry).
func (n *Node) HandleUnsubscribe(f *filter.Filter, id NodeID) {
	n.table.Remove(f, id)
	n.counters.SetFilters(n.table.Len())
}

// Sweep expires stale associations; it returns the number removed.
func (n *Node) Sweep(now time.Time) []NodeID {
	removed := n.table.Sweep(now)
	if len(removed) > 0 {
		n.counters.SetFilters(n.table.Len())
	}
	return removed
}

// RenewalsDue returns the distinct filters this node must renew with its
// parent: the parent-stage weakening of every stored filter. Computing
// from the live table keeps renewals exact after sweeps — filters no
// longer needed simply stop being renewed and expire upstream.
func (n *Node) RenewalsDue() []*filter.Filter {
	if n.IsRoot() {
		return nil
	}
	seen := make(map[string]*filter.Filter)
	var order []string
	for _, f := range n.table.Filters() {
		up := n.weak.Filter(f, n.stage+1)
		key := up.Key()
		if _, ok := seen[key]; !ok {
			seen[key] = up
			order = append(order, key)
		}
	}
	out := make([]*filter.Filter, len(order))
	for i, k := range order {
		out[i] = seen[k]
	}
	return out
}

// HandleEvent filters an incoming event and returns the IDs to forward it
// to (broker children and directly attached subscribers). Counters are
// updated per Section 5.1: every received event counts, an event counts
// as matched when at least one filter accepted it, and each forwarded
// copy counts individually.
func (n *Node) HandleEvent(e event.View) []NodeID {
	n.counters.AddReceived(1)
	ids, matched := n.table.Match(e)
	if matched > 0 {
		n.counters.AddMatched(1)
	}
	n.counters.AddForwarded(uint64(len(ids)))
	return ids
}

// HandleEventBatch filters a batch of incoming events in one table pass
// and returns, positionally aligned with events, the IDs to forward each
// event to. Per-event counter semantics match HandleEvent exactly; in
// addition the pass is recorded in the batch-efficiency counters
// (BatchesMatched, BatchSizeSum). Runtimes that coalesce queued publishes
// call this instead of per-event HandleEvent to amortize per-event
// overhead across the batch.
func (n *Node) HandleEventBatch(events []event.View) [][]NodeID {
	if len(events) == 0 {
		return nil
	}
	ids, matched := n.table.MatchBatch(events)
	var matchedEvents, forwarded uint64
	for i := range events {
		if matched[i] > 0 {
			matchedEvents++
		}
		forwarded += uint64(len(ids[i]))
	}
	n.counters.AddReceived(uint64(len(events)))
	n.counters.AddMatched(matchedEvents)
	n.counters.AddForwarded(forwarded)
	n.counters.AddBatchesMatched(1)
	n.counters.AddBatchSizeSum(uint64(len(events)))
	return ids
}

// TransformEventFor projects the event for transmission toward a child at
// the given stage (Proposition 2). Runtimes may call this to model the
// meta-data-only representation traveling through upper stages.
func (n *Node) TransformEventFor(e *event.Event, stage int) *event.Event {
	return n.weak.Event(e, stage)
}

// IsChild reports whether id is a broker child of this node.
func (n *Node) IsChild(id NodeID) bool { return n.children[id] }

// Children returns the broker children in configuration order.
func (n *Node) Children() []NodeID { return n.childIDs }

// AddChild registers a broker child at runtime (networked deployments
// where children connect dynamically). Duplicate adds are no-ops.
func (n *Node) AddChild(id NodeID) {
	if n.children[id] {
		return
	}
	n.children[id] = true
	n.childIDs = append(n.childIDs, id)
}

// RemoveChild unregisters a broker child (e.g. on disconnect). Routing
// state referring to the child remains until its leases expire.
func (n *Node) RemoveChild(id NodeID) {
	if !n.children[id] {
		return
	}
	delete(n.children, id)
	for i, c := range n.childIDs {
		if c == id {
			n.childIDs = append(n.childIDs[:i], n.childIDs[i+1:]...)
			break
		}
	}
}
