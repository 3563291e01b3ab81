// Package eventsys is a content-based publish/subscribe library with
// multi-stage filtering, reproducing "Event Systems: How to Have Your
// Cake and Eat It Too" (Eugster, Felber, Guerraoui, Handurukande; IEEE
// DEBS 2002).
//
// The library reconciles three properties the paper shows to be in
// tension:
//
//   - Event safety: events are application-defined Go types. Brokers
//     never execute application code or inspect object internals; the
//     subscriber runtime decodes and type-checks delivered objects.
//   - Subscription expressiveness: filters range over any exposed member
//     — equality, ordering, string patterns, existence — plus arbitrary
//     stateful Go predicates evaluated only at the subscriber.
//   - Filtering scalability: a hierarchy of broker stages pre-filters
//     events with automatically weakened (covering) filters, so no node
//     evaluates every subscription against every event.
//
// # Quick start
//
//	sys, _ := eventsys.New(eventsys.Options{})
//	defer sys.Close()
//	sys.Advertise("Stock", "symbol", "price")
//
//	type Stock struct{ Symbol string; Price float64 }
//	sub, _ := eventsys.SubscribeObject(sys, "me",
//	    `class = "Stock" && symbol = "ACME" && price < 10`,
//	    func(s Stock) { fmt.Println("buy!", s) })
//	defer sub.Unsubscribe()
//
//	eventsys.PublishObject(sys, "Stock", Stock{Symbol: "ACME", Price: 9.5})
package eventsys

import (
	"fmt"
	"sync"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/metrics"
	"eventsys/internal/object"
	"eventsys/internal/obs"
	"eventsys/internal/overlay"
	"eventsys/internal/store"
	"eventsys/internal/typing"
)

// Event is the property-set representation of a published event: a class
// name, attributes, and an opaque payload for object events.
type Event = event.Event

// Value is a typed attribute value.
type Value = event.Value

// NodeStats is a per-node metrics snapshot (LC, RLC and MR derive from
// it; see the paper's Section 5.1).
type NodeStats = metrics.NodeStats

// Re-exported value constructors for building untyped events.
var (
	String = event.String
	Int    = event.Int
	Float  = event.Float
	Bool   = event.Bool
)

// NewEvent starts building an untyped event of the given class.
func NewEvent(class string) *event.Builder { return event.NewBuilder(class) }

// Options configure a System.
type Options struct {
	// Fanouts lists broker counts per stage, top down. Default {1, 4, 16}
	// (three broker stages plus the subscriber stage). The paper's
	// evaluation topology is {1, 10, 100}.
	Fanouts []int
	// TTL is the subscription lease period (Section 4.3); leases lapse
	// after 3×TTL without renewal. 0 means subscriptions never expire.
	TTL time.Duration
	// AutoMaintain renews and sweeps leases in the background (TTL > 0).
	AutoMaintain bool
	// MaxBatch caps how many queued events a broker coalesces into one
	// matching pass (default 64; 1 disables coalescing). Larger batches
	// amortize per-event overhead, at the cost of burstier delivery.
	MaxBatch int
	// Seed makes subscription placement deterministic.
	Seed uint64
	// DataDir, when non-empty, roots a durable event store there:
	// durable-subscription backlogs (Section 2.1's "events stored for
	// temporarily disconnected subscribers") are persisted to a segmented
	// append-only log and survive a full process restart. Reopening a
	// System on the same DataDir and re-subscribing with the same
	// subscriber ID recovers the stored backlog; Resume replays it in
	// order. Empty keeps backlogs in process memory only.
	DataDir string
	// Durability selects the store's fsync policy (DataDir only).
	Durability Durability
	// StoreMaxBytes bounds the durable store's retained log (DataDir
	// only): beyond it the oldest segments are evicted even if
	// unconsumed, keeping an abandoned backlog from pinning the disk.
	// 0 means unbounded.
	StoreMaxBytes int64
	// FlowPolicy selects the slow-consumer policy for event traffic at
	// every bounded queue on the delivery path (broker mailboxes and
	// subscriber delivery queues). FlowBlock, the default, is lossless
	// end-to-end backpressure: a slow subscriber stalls its broker, and
	// a saturated hierarchy stalls Publish itself. FlowDropNewest and
	// FlowDropOldest shed events at the saturated queue (counted in
	// NodeStats.Dropped). FlowSpillToStore diverts delivery-queue
	// overflow to the subscriber's backlog — the durable store for
	// durable subscriptions with a DataDir, the bounded in-memory
	// backlog otherwise — and replays it in order once the subscriber
	// catches up. Subscription, lease and barrier traffic is never
	// dropped by any policy.
	FlowPolicy FlowPolicy
	// FlowWindow bounds every queue on the delivery path when > 0 (one
	// knob replacing the per-queue defaults of 256 for mailboxes and 64
	// for delivery queues).
	FlowWindow int
	// ObsAddr, when non-empty, starts an observability HTTP listener
	// ("127.0.0.1:0" for ephemeral — read it back with System.ObsAddr)
	// serving /metrics in Prometheus text format, /healthz, /readyz,
	// /debug/status (JSON introspection) and /debug/pprof. Empty runs
	// without a listener.
	ObsAddr string
	// Trace enables hop-level latency tracing: each Publish stamps the
	// event and the match/forward/deliver stages record
	// elapsed-since-publish histograms, exposed as the
	// eventsys_hop_latency_seconds family on /metrics. Off by default —
	// the disabled path is a single atomic load per event.
	Trace bool
}

// FlowPolicy selects what a saturated queue does with new events — the
// system-wide slow-consumer policy (see Options.FlowPolicy).
type FlowPolicy int

const (
	// FlowBlock makes producers wait for space: lossless end-to-end
	// backpressure, the default.
	FlowBlock FlowPolicy = FlowPolicy(flow.Block)
	// FlowDropNewest discards the incoming event at a full queue.
	FlowDropNewest FlowPolicy = FlowPolicy(flow.DropNewest)
	// FlowDropOldest evicts the oldest queued event to admit the new
	// one, converging on the freshest window of traffic.
	FlowDropOldest FlowPolicy = FlowPolicy(flow.DropOldest)
	// FlowSpillToStore diverts overflow to backlog storage for in-order
	// replay (degrading to a counted drop where no backlog exists).
	FlowSpillToStore FlowPolicy = FlowPolicy(flow.SpillToStore)
)

// String returns the policy's flag spelling (block, drop-newest,
// drop-oldest, spill).
func (p FlowPolicy) String() string { return flow.Policy(p).String() }

// ParseFlowPolicy parses a policy name as spelled by String — the
// -flow-policy flag surface of cmd/broker and cmd/eventsim.
func ParseFlowPolicy(s string) (FlowPolicy, error) {
	p, err := flow.ParsePolicy(s)
	return FlowPolicy(p), err
}

// QueueStats is a point-in-time snapshot of one bounded queue's flow
// gauges: depth, window, high-water mark, and the enqueue/drop/spill/
// stall counts (see System.FlowStats and Broker.FlowStats).
type QueueStats = flow.Snapshot

// Durability is the fsync policy of the durable event store.
type Durability int

const (
	// DurabilityBatched groups fsyncs (every 64 appends or 100ms,
	// whichever comes first): near-async throughput, with a bounded
	// window in which a crash can lose the most recent stored events.
	// The default.
	DurabilityBatched Durability = iota
	// DurabilityAlways fsyncs every append: a stored event is on stable
	// storage before the runtime moves on. Strongest, slowest.
	DurabilityAlways
	// DurabilityOS never fsyncs explicitly; the operating system's page
	// cache decides when bytes reach disk. A process crash loses
	// nothing, a power failure may lose the tail — never the intact
	// prefix.
	DurabilityOS
)

// StoreStats is a snapshot of the durable event store's counters.
type StoreStats = store.Stats

// System is an in-process multi-stage event system: a broker hierarchy
// run on goroutines connected by channels. Create with New, stop with
// Close.
type System struct {
	ov  *overlay.System
	reg *typing.Registry
	st  *store.Store

	obsReg *obs.Registry
	obsSrv *obs.Server // nil without Options.ObsAddr
	tracer *obs.Tracer

	mu     sync.Mutex
	orders map[string][]string // class -> advertised attribute order
	stages int
}

// New starts a System.
func New(opts Options) (*System, error) {
	if opts.Fanouts == nil {
		opts.Fanouts = []int{1, 4, 16}
	}
	var st *store.Store
	if opts.DataDir != "" {
		sopts := store.Options{MaxBytes: opts.StoreMaxBytes}
		switch opts.Durability {
		case DurabilityAlways:
			sopts.SyncEvery = 1
		case DurabilityOS:
			sopts.SyncEvery = -1
		}
		var err error
		st, err = store.Open(opts.DataDir, sopts)
		if err != nil {
			return nil, err
		}
	}
	reg := typing.NewRegistry()
	tracer := obs.NewTracer()
	tracer.Enable(opts.Trace)
	ov, err := overlay.New(overlay.Config{
		Fanouts:      opts.Fanouts,
		TTL:          opts.TTL,
		AutoMaintain: opts.AutoMaintain,
		Registry:     reg,
		MaxBatch:     opts.MaxBatch,
		FlowPolicy:   flow.Policy(opts.FlowPolicy),
		FlowWindow:   opts.FlowWindow,
		Store:        st,
		Seed:         opts.Seed,
		Tracer:       tracer,
	})
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	s := &System{
		ov:     ov,
		reg:    reg,
		st:     st,
		obsReg: obs.NewRegistry(),
		tracer: tracer,
		orders: make(map[string][]string),
		stages: len(opts.Fanouts) + 1,
	}
	s.obsReg.Register(func(w *obs.MetricWriter) {
		obs.CollectNodeStats(w, s.ov.Stats()...)
		obs.CollectFlow(w, "system", s.ov.FlowStats())
		if s.st != nil {
			obs.CollectStore(w, "system", s.st.Stats())
		}
		s.tracer.Collect(w, "node", "system")
	})
	s.obsReg.RegisterStatus("system", func() any {
		status := map[string]any{
			"stages":  s.stages,
			"stats":   s.ov.Stats(),
			"flow":    s.ov.FlowStats(),
			"tracing": s.tracer.Enabled(),
		}
		if s.st != nil {
			status["store"] = s.st.Stats()
		}
		return status
	})
	if opts.ObsAddr != "" {
		srv, err := obs.Serve(opts.ObsAddr, s.obsReg)
		if err != nil {
			s.ov.Close()
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		s.obsSrv = srv
	}
	return s, nil
}

// ObsAddr returns the bound address of the observability listener, or
// "" when the System runs without one (Options.ObsAddr empty).
func (s *System) ObsAddr() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.Addr()
}

// ObsRegistry exposes the System's observability registry so embedding
// applications can contribute their own metric and status sources, or
// serve it from an existing HTTP mux instead of Options.ObsAddr.
func (s *System) ObsRegistry() *obs.Registry { return s.obsReg }

// Close shuts the system down and waits for all of its goroutines. With a
// DataDir, the durable store is flushed (outstanding appends and cursors)
// and closed last, so a clean Close loses nothing.
func (s *System) Close() {
	// Flip health first: scrapers and load balancers see the drain
	// before the listener disappears.
	s.obsReg.SetHealthy(false)
	s.ov.Close()
	if s.st != nil {
		s.st.Close()
	}
	if s.obsSrv != nil {
		_ = s.obsSrv.Close()
	}
}

// RegisterType places an event class in the type hierarchy. Subscribing
// to a class then also matches events of its (transitive) subtypes —
// type-based publish/subscribe. An empty parent attaches the class below
// the implicit root.
func (s *System) RegisterType(name, parent string) error {
	return s.reg.Register(name, parent)
}

// Advertise announces an event class with its attributes ordered from
// most general to least general (the order drives automated filter
// weakening per stage — Section 4.1's attribute-stage association G_c,
// in its canonical drop-one-attribute-per-stage form).
func (s *System) Advertise(class string, attrs ...string) error {
	ad, err := typing.NewAdvertisement(class, s.stages, attrs...)
	if err != nil {
		return err
	}
	return s.AdvertiseCustom(ad)
}

// AdvertiseCustom announces a class with an explicit attribute-stage
// association (set Advertisement.StageAttrs before calling).
func (s *System) AdvertiseCustom(ad *typing.Advertisement) error {
	if err := s.ov.Advertise(ad); err != nil {
		return err
	}
	s.mu.Lock()
	s.orders[ad.Class] = append([]string(nil), ad.Attrs...)
	s.mu.Unlock()
	return nil
}

// attrOrder returns the advertised attribute order for a class.
func (s *System) attrOrder(class string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orders[class]
}

// Publish injects an untyped event at the root of the hierarchy.
func (s *System) Publish(e *Event) error { return s.ov.Publish(e) }

// Subscription is a live subscription handle.
type Subscription struct {
	h *overlay.Handle
}

// Subscribe registers an untyped subscription. The subscription text is
// a disjunction of conjunctive filters, e.g.
//
//	class = "Stock" && symbol = "ACME" && price < 10 || class = "Bond"
//
// The handler runs on a dedicated goroutine and receives each matching
// event exactly once.
func (s *System) Subscribe(id, subscription string, handler func(*Event)) (*Subscription, error) {
	sub, err := filter.Parse(subscription)
	if err != nil {
		return nil, err
	}
	h, err := s.ov.Subscribe(id, sub, overlay.Handler(handler))
	if err != nil {
		return nil, err
	}
	return &Subscription{h: h}, nil
}

// SubscribeDurable is Subscribe with durable semantics (Section 2.1 of
// the paper: brokers store events for temporarily disconnected
// subscribers). Detach pauses delivery while the hierarchy keeps routing
// and buffering; Resume drains the backlog in order and goes live again.
//
// Persistence: with Options.DataDir set, the detached-period backlog
// lives in the durable event store and survives a full process restart —
// close the System, reopen it on the same DataDir, call SubscribeDurable
// with the same id, and the stored backlog is waiting; such a recovered
// subscription starts detached, and Resume replays the backlog in
// publish order before any live event. Limits: events delivered while
// the subscription is attached (live) are not persisted, and under
// DurabilityBatched a crash may lose events stored within the final
// fsync-batching window (at most 64 events or 100ms; use
// DurabilityAlways to close it). Without DataDir the backlog is
// process-memory only and a restart loses it.
func (s *System) SubscribeDurable(id, subscription string, handler func(*Event)) (*Subscription, error) {
	sub, err := filter.Parse(subscription)
	if err != nil {
		return nil, err
	}
	h, err := s.ov.SubscribeDurable(id, sub, overlay.Handler(handler))
	if err != nil {
		return nil, err
	}
	return &Subscription{h: h}, nil
}

// SubscribeWhere is Subscribe with an additional local predicate applied
// at the subscriber runtime after perfect filtering. The predicate may be
// stateful (the paper's BuyFilter example): it runs only at the edge,
// never at brokers.
func (s *System) SubscribeWhere(id, subscription string, pred func(*Event) bool, handler func(*Event)) (*Subscription, error) {
	if pred == nil {
		return nil, fmt.Errorf("eventsys: nil predicate")
	}
	return s.Subscribe(id, subscription, func(e *Event) {
		if pred(e) {
			handler(e)
		}
	})
}

// Unsubscribe cancels the subscription.
func (sub *Subscription) Unsubscribe() error { return sub.h.Unsubscribe() }

// Detach pauses a durable subscription; its events accumulate at the
// subscriber runtime until Resume. With Options.DataDir they accumulate
// in the durable store — fsynced per Options.Durability — and survive a
// process restart; without it they accumulate in a bounded in-memory
// backlog that a restart loses.
func (sub *Subscription) Detach() error { return sub.h.Detach() }

// Resume re-attaches a detached durable subscription: the backlog drains
// in FIFO order into the new handler, then live delivery continues. With
// Options.DataDir the drain replays the persisted backlog — including
// events stored by a previous process incarnation — exactly once per
// clean shutdown (a crash between replay and the next cursor sync
// redelivers from the last synced cursor: at-least-once, never loss).
func (sub *Subscription) Resume(handler func(*Event)) error {
	return sub.h.Resume(overlay.Handler(handler))
}

// Backlog reports events stored for a detached durable subscription
// (persisted events when Options.DataDir is set).
func (sub *Subscription) Backlog() int { return sub.h.Backlog() }

// Broker returns the ID of the broker that accepted the subscription
// (a stage-1 node normally; higher for wildcard subscriptions).
func (sub *Subscription) Broker() string { return sub.h.Node() }

// Delivered reports how many events passed perfect filtering and reached
// the handler.
func (sub *Subscription) Delivered() uint64 { return sub.h.Delivered() }

// Received reports how many events reached the subscriber runtime before
// perfect filtering (Received - Delivered is the residual imprecision of
// pre-filtering; the paper's MR at the subscriber is Delivered/Received).
func (sub *Subscription) Received() uint64 { return sub.h.Received() }

// PublishObject publishes an application object as an event of the given
// class. Attributes are extracted by reflection (exported fields and
// Get*-prefixed accessors, Section 3.4) into routing meta-data; the
// object itself travels as an opaque payload that only subscriber
// runtimes decode — brokers never see inside it.
func PublishObject[T any](s *System, class string, obj T) error {
	e, err := object.ToEvent(class, obj, s.attrOrder(class))
	if err != nil {
		return err
	}
	return s.Publish(e)
}

// SubscribeObject registers a type-safe subscription: the handler
// receives decoded T values. Events whose payload does not decode as T
// are dropped (a subscriber asking for a type never sees another).
func SubscribeObject[T any](s *System, id, subscription string, handler func(T)) (*Subscription, error) {
	return SubscribeObjectWhere(s, id, subscription, nil, handler)
}

// SubscribeObjectWhere is SubscribeObject with a typed local predicate
// evaluated at the subscriber runtime — arbitrary, possibly stateful Go
// code the brokers never run (the paper's end-to-end event safety).
func SubscribeObjectWhere[T any](s *System, id, subscription string, pred func(T) bool, handler func(T)) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("eventsys: nil handler")
	}
	return s.Subscribe(id, subscription, func(e *Event) {
		obj, err := object.Decode[T](e.Payload)
		if err != nil {
			return
		}
		if pred != nil && !pred(obj) {
			return
		}
		handler(obj)
	})
}

// Stats snapshots per-node metrics for every broker and subscriber:
// stored filters, events received/matched/forwarded/delivered/dropped,
// flow-control activity (stalls, spills, credit) and durable-store
// traffic. The paper's LC, RLC and MR metrics derive from these via the
// methods on NodeStats.
func (s *System) Stats() []NodeStats { return s.ov.Stats() }

// FlowStats snapshots every bounded queue on the delivery path — one
// entry per broker mailbox and per subscriber delivery queue — exposing
// depth, high-water mark, and the per-queue drop/spill/stall counts
// that show which layer absorbed an overload.
func (s *System) FlowStats() []QueueStats { return s.ov.FlowStats() }

// StoreStats snapshots the durable event store's counters (segments,
// bytes, appends, replays, evictions, pending backlog). ok is false when
// the System runs without a DataDir.
func (s *System) StoreStats() (st StoreStats, ok bool) {
	if s.st == nil {
		return StoreStats{}, false
	}
	return s.st.Stats(), true
}

// Maintain runs one synchronous lease renewal and sweep round at the
// given time (AutoMaintain does this continuously).
func (s *System) Maintain(now time.Time) { s.ov.Maintain(now) }

// Flush blocks until every previously published event has been fully
// processed and delivered. Useful in tests and batch pipelines.
func (s *System) Flush() { s.ov.Flush() }
