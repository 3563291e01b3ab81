// Package peering is the transport-agnostic core of SIENA-style
// server-to-server federation: the per-broker routing and weakening
// state that both the in-process mesh (internal/mesh) and the networked
// broker federation (internal/broker over TCP) share.
//
// One Core holds a single broker's view of an acyclic peer graph:
//
//   - locals — the broker's own subscribers with their original
//     (stage-0) filters;
//   - per link, interests — filters received from that neighbor: an
//     event matching any of them is forwarded there (reverse-path
//     forwarding);
//   - per link, sent — the filters this broker has propagated to that
//     neighbor, kept for covering-based pruning: a filter already
//     covered by one on the link is suppressed, never sent.
//
// Both covering questions — is a new local filter absorbed by the
// subscriber's own, is an entry already covered on a link — are asked of
// a filter.CoverSet, which runs the exact check only on the stored
// filters that can cover the new one.
//
// Subscription state travels as Entry values: the subscriber's original
// filter plus the receiver's hop distance from the subscriber's home
// broker. Receivers store the hop-weakened form (multi-stage weakening
// generalized to distance) and re-derive exact weakenings for onward
// hops from the original — no monotonicity assumption on the
// advertisement's stage association is needed.
//
// The Core is deliberately passive and single-threaded: every mutation
// returns the Updates (entries to send on which links) for the caller's
// transport to carry — synchronous recursion in the mesh, wire frames in
// the networked broker. Callers own synchronization.
//
// The event plane's flow control likewise belongs to the transports:
// the networked broker runs each link's outbound traffic through a
// policy-governed flow.Queue with credit-based sender gating, spilling
// to the durable store under the link's "@peer/" cursor when the policy
// says so. The Core only decides where events and entries go — never
// how fast, and never what saturation costs.
package peering

import (
	"sort"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/metrics"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
)

// LinkID names a peer link (the neighbor broker's identity).
type LinkID string

// Entry is one element of exchanged subscription state: a subscriber's
// original filter plus the receiving broker's hop distance from the
// subscriber's home broker.
type Entry struct {
	// Filter is the subscriber's original (stage-0) filter.
	Filter *filter.Filter
	// Hops is the receiver's distance from the home broker (1 for the
	// home broker's direct neighbor).
	Hops int
}

// Update instructs the caller to send Entry over Link.
type Update struct {
	Link LinkID
	Entry
}

// Config parameterizes a Core.
type Config struct {
	// Conformance resolves type subtyping; nil = exact names.
	Conformance filter.Conformance
	// Ads supplies advertisements for distance-based weakening; nil
	// disables weakening (full filters propagate everywhere).
	Ads *typing.AdvertisementSet
	// MaxStage clamps the hop-distance weakening stage; 0 disables
	// weakening even with Ads set.
	MaxStage int
	// Counters, when non-nil, receives aggregate propagation metrics
	// (subs propagated / suppressed / absorbed by covering, exact
	// covering checks run).
	Counters *metrics.Counters
}

// LinkStats snapshots one link's subscription-state counters.
type LinkStats struct {
	Link LinkID
	// Interests is the number of filters received from the link.
	Interests int
	// Sent is the number of filters propagated to the link.
	Sent int
	// Propagated counts entries emitted toward the link over its
	// lifetime (resyncs included).
	Propagated uint64
	// Suppressed counts entries pruned by covering instead of sent.
	Suppressed uint64
}

// interest is one filter received from a link: the original for exact
// onward weakening, the hop-weakened form for event matching.
type interest struct {
	orig   *filter.Filter
	stored *filter.Filter
	hops   int
}

type link struct {
	id        LinkID
	interests []interest
	sent      filter.CoverSet
	// standby inverts the activation flag so the zero value is an active
	// link (the mesh and pre-election transports never touch it). A
	// standby link is a registered failover edge: it receives no
	// propagated subscription state and matches no events until the
	// spanning-tree election activates it.
	standby bool

	propagated uint64
	suppressed uint64
}

// Core is one broker's federation state. Not safe for concurrent use;
// callers (mesh mutex, broker core goroutine) serialize access.
type Core struct {
	conf     filter.Conformance
	weak     *weaken.Weakener
	maxStage int
	counters *metrics.Counters

	links  map[LinkID]*link
	order  []LinkID                    // deterministic iteration
	locals map[string]*filter.CoverSet // never empty
}

// New creates an empty Core.
func New(cfg Config) *Core {
	conf := cfg.Conformance
	if conf == nil {
		conf = filter.ExactTypes{}
	}
	c := &Core{
		conf:     conf,
		maxStage: cfg.MaxStage,
		counters: cfg.Counters,
		links:    make(map[LinkID]*link),
		locals:   make(map[string]*filter.CoverSet),
	}
	if cfg.Ads != nil {
		c.weak = weaken.New(cfg.Ads, conf)
	}
	return c
}

// AddLink registers a peer link; it reports whether the link is new.
// Re-adding an existing link keeps its state (a reconnecting transport
// must not lose the interests accumulated for the link).
func (c *Core) AddLink(id LinkID) bool {
	if _, ok := c.links[id]; ok {
		return false
	}
	c.links[id] = &link{id: id}
	c.order = append(c.order, id)
	return true
}

// SetActive switches a link between active (participating in routing
// and subscription propagation — the default) and standby (a registered
// failover edge that carries nothing until promoted). Unknown links are
// ignored.
func (c *Core) SetActive(id LinkID, active bool) {
	if l, ok := c.links[id]; ok {
		l.standby = !active
	}
}

// Active reports whether the link is registered and active.
func (c *Core) Active(id LinkID) bool {
	l, ok := c.links[id]
	return ok && !l.standby
}

// HasLink reports whether the link is registered.
func (c *Core) HasLink(id LinkID) bool {
	_, ok := c.links[id]
	return ok
}

// Links returns the registered link IDs in registration order.
func (c *Core) Links() []LinkID {
	return append([]LinkID(nil), c.order...)
}

// HasLocal reports whether a local subscriber is registered.
func (c *Core) HasLocal(subID string) bool {
	return c.locals[subID] != nil
}

// weakenFor returns the filter weakened for hop distance h (clamped to
// MaxStage); without advertisements or with MaxStage 0 it clones.
func (c *Core) weakenFor(f *filter.Filter, hops int) *filter.Filter {
	if c.weak == nil || c.maxStage <= 0 {
		return f.Clone()
	}
	stage := hops
	if stage > c.maxStage {
		stage = c.maxStage
	}
	return c.weak.Filter(f, stage)
}

// offer propagates one entry toward a link if no filter already sent
// there covers its weakened form; it returns the update to send, or nil
// when pruned.
func (c *Core) offer(l *link, e Entry) *Update {
	wf := c.weakenFor(e.Filter, e.Hops)
	if c.covered(&l.sent, wf) {
		l.suppressed++
		if c.counters != nil {
			c.counters.AddPeerSuppressed(1)
		}
		return nil // link already carries a superset
	}
	l.sent.Add(wf)
	l.propagated++
	if c.counters != nil {
		c.counters.AddPeerPropagated(1)
	}
	return &Update{Link: l.id, Entry: Entry{Filter: e.Filter.Clone(), Hops: e.Hops}}
}

// covered asks set whether it covers f and counts the exact checks run.
func (c *Core) covered(set *filter.CoverSet, f *filter.Filter) bool {
	covered, checks := set.CoveredByAny(f, c.conf)
	if c.counters != nil {
		c.counters.AddCoverChecks(uint64(checks))
	}
	return covered
}

// Subscribe adds a filter to a local subscriber (one subscriber may hold
// several — disjuncts, or the child-broker aggregates the networked
// broker registers under one key) and returns the entries to propagate:
// the filter at hop distance 1, once per link, pruned by covering. A
// filter already covered by one of the subscriber's existing filters is
// absorbed — it adds no matches and no propagation.
func (c *Core) Subscribe(subID string, f *filter.Filter) []Update {
	own := c.locals[subID]
	if own == nil {
		own = &filter.CoverSet{}
		c.locals[subID] = own
	} else if c.covered(own, f) {
		if c.counters != nil {
			c.counters.AddPeerAbsorbed(1)
		}
		return nil
	}
	own.Add(f.Clone())
	var out []Update
	for _, id := range c.order {
		if c.links[id].standby {
			continue
		}
		if u := c.offer(c.links[id], Entry{Filter: f, Hops: 1}); u != nil {
			out = append(out, *u)
		}
	}
	return out
}

// Unsubscribe removes a local subscriber with all of its filters,
// reporting whether it existed. Like the mesh (and SIENA's basic
// protocol), propagated state is not retracted: remote brokers keep the
// weakened filter until a link resync rebuilds their interest set —
// over-forwarding, never under-delivery.
func (c *Core) Unsubscribe(subID string) bool {
	if c.locals[subID] == nil {
		return false
	}
	delete(c.locals, subID)
	return true
}

// Apply stores an entry received from a link and returns the onward
// updates: the entry at Hops+1 toward every other link, pruned by
// covering. Unknown links are registered implicitly.
func (c *Core) Apply(from LinkID, e Entry) []Update {
	c.AddLink(from)
	l := c.links[from]
	l.interests = append(l.interests, interest{
		orig:   e.Filter.Clone(),
		stored: c.weakenFor(e.Filter, e.Hops),
		hops:   e.Hops,
	})
	var out []Update
	for _, id := range c.order {
		if id == from || c.links[id].standby {
			continue
		}
		if u := c.offer(c.links[id], Entry{Filter: e.Filter, Hops: e.Hops + 1}); u != nil {
			out = append(out, *u)
		}
	}
	return out
}

// Replace substitutes the link's whole interest set (a SubSet resync)
// and returns the onward updates for every entry, pruned by covering.
func (c *Core) Replace(from LinkID, entries []Entry) []Update {
	c.AddLink(from)
	c.links[from].interests = nil
	var out []Update
	for _, e := range entries {
		out = append(out, c.Apply(from, e)...)
	}
	return out
}

// Sync recomputes the full entry set for a (re-)established link: the
// sent state is reset, then every local subscription (hops 1) and every
// interest from other links (hops+1) is offered again. The returned
// entries are what a transport sends as the link's SubSet.
func (c *Core) Sync(to LinkID) []Entry {
	c.AddLink(to)
	l := c.links[to]
	l.sent = filter.CoverSet{}
	var out []Entry
	// Locals in sorted order for determinism.
	ids := make([]string, 0, len(c.locals))
	for id := range c.locals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, f := range c.locals[id].Filters() {
			if u := c.offer(l, Entry{Filter: f, Hops: 1}); u != nil {
				out = append(out, u.Entry)
			}
		}
	}
	for _, from := range c.order {
		if from == to {
			continue
		}
		for _, in := range c.links[from].interests {
			if u := c.offer(l, Entry{Filter: in.orig, Hops: in.hops + 1}); u != nil {
				out = append(out, u.Entry)
			}
		}
	}
	return out
}

// Entries returns the link's current interest set as entries (original
// filters with their hop distances) — the state a transport persists to
// rebuild the link after a restart.
func (c *Core) Entries(from LinkID) []Entry {
	l, ok := c.links[from]
	if !ok {
		return nil
	}
	out := make([]Entry, len(l.interests))
	for i, in := range l.interests {
		out[i] = Entry{Filter: in.orig.Clone(), Hops: in.hops}
	}
	return out
}

// MatchLocals returns the local subscriber IDs with at least one
// original filter matching the event (perfect filtering at the home
// broker), sorted so the result is independent of map iteration order —
// a requirement of the deterministic simulator, and cheap enough for
// the live path.
func (c *Core) MatchLocals(e event.View) []string {
	var out []string
	for id, own := range c.locals {
		for _, f := range own.Filters() {
			if f.Matches(e, c.conf) {
				out = append(out, id)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// MatchLinks returns the active links (excluding from) with at least
// one interest matching the event — the reverse paths the event must
// follow. Standby links hold no interests in steady state, but during a
// failover handoff a dead link keeps its interests while demoted edges
// must not double-route, so the activation flag gates matching too.
// Order is link registration order.
func (c *Core) MatchLinks(e event.View, from LinkID) []LinkID {
	var out []LinkID
	for _, id := range c.order {
		if id == from || c.links[id].standby {
			continue
		}
		for _, in := range c.links[id].interests {
			if in.stored.Matches(e, c.conf) {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// MatchLink reports whether the given link holds an interest matching
// the event, regardless of activation — the re-routing probe failover
// uses to re-home a dead link's orphaned spool onto freshly promoted
// edges.
func (c *Core) MatchLink(e event.View, id LinkID) bool {
	l, ok := c.links[id]
	if !ok {
		return false
	}
	for _, in := range l.interests {
		if in.stored.Matches(e, c.conf) {
			return true
		}
	}
	return false
}

// FilterCount reports the broker's total stored filters (locals plus
// per-link interests), the quantity the paper's LC counts.
func (c *Core) FilterCount() int {
	n := 0
	for _, own := range c.locals {
		n += own.Len()
	}
	for _, l := range c.links {
		n += len(l.interests)
	}
	return n
}

// LinkStats snapshots every link's counters, in registration order.
func (c *Core) LinkStats() []LinkStats {
	out := make([]LinkStats, 0, len(c.order))
	for _, id := range c.order {
		l := c.links[id]
		out = append(out, LinkStats{
			Link:       id,
			Interests:  len(l.interests),
			Sent:       l.sent.Len(),
			Propagated: l.propagated,
			Suppressed: l.suppressed,
		})
	}
	return out
}
