package eventsys

import (
	"fmt"
	"log/slog"
	"time"

	"eventsys/internal/broker"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/obs"
	"eventsys/internal/typing"
)

// This file is the networked-deployment facade: where New builds an
// in-process hierarchy, ServeBroker runs one TCP broker node that can
// join a parent/child hierarchy, federate with peer brokers over a mesh
// (BrokerOptions.Peers — cycles allowed: a deterministic spanning-tree
// election keeps routing loop-free and holds redundant links as standby
// failover paths), or both. DialPublisher and DialSubscriber are the
// matching clients. The cmd/broker and cmd/pubsub commands are thin
// wrappers over the same configuration surface.

// BrokerOptions configure one networked broker node.
type BrokerOptions struct {
	// ID is the broker's identity (required, unique across the
	// deployment, e.g. "zurich" or "N2.1").
	ID string
	// Stage is the broker's filtering stage (default 1 = closest to
	// subscribers).
	Stage int
	// Listen is the TCP listen address; default "127.0.0.1:0"
	// (ephemeral — read the bound address back with Broker.Addr).
	Listen string
	// Parent, when non-empty, attaches the broker under a parent in a
	// multi-stage hierarchy.
	Parent string
	// Peers lists peer broker addresses to dial and keep dialed (with
	// reconnect) for SIENA-style mesh federation. Each edge is
	// configured on exactly one side — the other side only accepts. The
	// graph may contain cycles: a deterministic spanning-tree election
	// picks the links that carry traffic and holds the rest as connected
	// standby edges that take over when an elected link's broker dies.
	// The set is runtime-mutable: see Broker.AddPeer, RemovePeer and
	// SetPeers.
	Peers []string
	// HeartbeatInterval paces PeerPing liveness probes on federation
	// links (0 = default 2s, negative = disabled); DeadLinkTimeout is
	// how long a link may stay silent before it is declared dead and
	// closed (0 = 4× the heartbeat interval). Dead links feed the same
	// re-election and failover path as clean disconnects.
	HeartbeatInterval time.Duration
	DeadLinkTimeout   time.Duration
	// PeerMaxStage clamps hop-distance weakening of subscription state
	// propagated to peers: a filter h hops from its home broker is
	// stored in its stage-min(h, PeerMaxStage) weakened form. 0
	// propagates full filters — always exact, most state.
	PeerMaxStage int
	// ReplicaOf, when non-empty, names the replica group this broker
	// joins for partitioned scale-out: brokers sharing the name divide
	// the event key space (rendezvous-hashed partitions derived from the
	// link-state database, so all replicas agree without coordination)
	// and partition-aware publishers fan each event directly to its
	// owning replica. Replicas must still be federated via Peers — the
	// group only assigns load placement on top of the mesh.
	ReplicaOf string
	// Partitions is the partition count for the ReplicaOf group (0 =
	// default 64). Every member of a group must use the same count.
	Partitions int
	// TTL is the subscription lease period; 0 disables expiry.
	TTL time.Duration
	// MaxBatch is the publish-batch ceiling, exactly as on the
	// in-process Options.
	MaxBatch int
	// Seed drives subscription-placement randomness.
	Seed uint64
	// DataDir, Durability and StoreMaxBytes configure the durable event
	// store, as on the in-process Options. With federation, the store
	// additionally spools events for peer links that are down or
	// saturated, and persists each link's learned interests for restart
	// recovery.
	DataDir       string
	Durability    Durability
	StoreMaxBytes int64
	// FlowPolicy selects the slow-consumer policy for event traffic at
	// the broker's queues (core inlet and per-connection outbound
	// queues), exactly as on the in-process Options: FlowBlock (default)
	// backpressures — credit grants carry the stall across TCP hops all
	// the way to publishers — while the drop policies shed (counted) and
	// FlowSpillToStore diverts overflow to the durable store for
	// in-order replay. FlowWindow bounds each queue and sets the event
	// credit window granted to senders (default 1024).
	FlowPolicy FlowPolicy
	FlowWindow int
	// ObsAddr, when non-empty, starts an observability HTTP listener
	// ("127.0.0.1:0" for ephemeral — read it back with Broker.ObsAddr)
	// serving /metrics (Prometheus text format), /healthz, /readyz,
	// /debug/status and /debug/pprof for this broker.
	ObsAddr string
	// Trace enables hop-level latency tracing: inbound events are
	// stamped on arrival and the match/forward/deliver stages record
	// elapsed-since-arrival histograms on /metrics. Off by default.
	Trace bool
	// Logger receives the broker's operational logs (peer link
	// lifecycle, store recovery and compaction, flow stalls). Nil
	// discards them.
	Logger *slog.Logger
}

// Broker is a running networked broker node.
type Broker struct {
	srv    *broker.Server
	obsReg *obs.Registry
	obsSrv *obs.Server // nil without BrokerOptions.ObsAddr
}

// PeerLinkStats is a point-in-time snapshot of one federation link (see
// Broker.PeerStats).
type PeerLinkStats = broker.PeerLinkStats

// TopologyStats is a point-in-time snapshot of the broker's federation
// control plane: the link-state database, the elected spanning tree,
// failover progress, and the runtime-intended peer set (see
// Broker.TopologyStats).
type TopologyStats = broker.TopologyStats

// PartitionStats is a point-in-time snapshot of the broker's partition
// plane: replica-group membership, the agreed partition map epoch,
// owned partitions and redirect traffic (see Broker.PartitionStats).
type PartitionStats = broker.PartitionStats

// ServeBroker starts a networked broker node and returns once it is
// listening.
func ServeBroker(opts BrokerOptions) (*Broker, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("eventsys: BrokerOptions.ID is required")
	}
	if opts.Stage == 0 {
		opts.Stage = 1
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	var syncEvery int
	switch opts.Durability {
	case DurabilityAlways:
		syncEvery = 1
	case DurabilityOS:
		syncEvery = -1
	}
	reg := obs.NewRegistry()
	srv, err := broker.Serve(broker.ServerConfig{
		ID:                opts.ID,
		Stage:             opts.Stage,
		ListenAddr:        opts.Listen,
		ParentAddr:        opts.Parent,
		Peers:             opts.Peers,
		HeartbeatInterval: opts.HeartbeatInterval,
		DeadLinkTimeout:   opts.DeadLinkTimeout,
		PeerMaxStage:      opts.PeerMaxStage,
		ReplicaOf:         opts.ReplicaOf,
		Partitions:        opts.Partitions,
		TTL:               opts.TTL,
		MaxBatch:          opts.MaxBatch,
		Seed:              opts.Seed,
		Logger:            opts.Logger,
		DataDir:           opts.DataDir,
		SyncEvery:         syncEvery,
		StoreMaxBytes:     opts.StoreMaxBytes,
		FlowPolicy:        flow.Policy(opts.FlowPolicy),
		FlowWindow:        opts.FlowWindow,
		Obs:               reg,
		Trace:             opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	b := &Broker{srv: srv, obsReg: reg}
	if opts.ObsAddr != "" {
		osrv, err := obs.Serve(opts.ObsAddr, reg)
		if err != nil {
			srv.Close()
			return nil, err
		}
		b.obsSrv = osrv
	}
	return b, nil
}

// ObsAddr returns the bound address of the broker's observability
// listener, or "" when it runs without one (BrokerOptions.ObsAddr
// empty).
func (b *Broker) ObsAddr() string {
	if b.obsSrv == nil {
		return ""
	}
	return b.obsSrv.Addr()
}

// ObsRegistry exposes the broker's observability registry so embedding
// applications can contribute their own sources or serve it from an
// existing HTTP mux instead of BrokerOptions.ObsAddr.
func (b *Broker) ObsRegistry() *obs.Registry { return b.obsReg }

// Addr returns the broker's bound listen address.
func (b *Broker) Addr() string { return b.srv.Addr() }

// Close shuts the broker down, flushing and closing its durable store.
// The /healthz verdict flips to 503 first, then the broker drains, then
// the observability listener (if any) stops — so scrapers can watch the
// drain.
func (b *Broker) Close() {
	b.obsReg.SetHealthy(false)
	b.srv.Close()
	if b.obsSrv != nil {
		_ = b.obsSrv.Close()
	}
}

// Stats snapshots the broker's node metrics (LC/RLC/MR inputs plus the
// federation-plane counters).
func (b *Broker) Stats() NodeStats { return b.srv.Stats() }

// PeerStats snapshots every federation link: up/down, interests learned
// and sent, covering-pruning economy, forwards, durable spool traffic
// and resyncs.
func (b *Broker) PeerStats() []PeerLinkStats { return b.srv.PeerStats() }

// FlowStats snapshots the broker's bounded queues (core inlet plus
// every connection's outbound event queue): depth, high-water mark and
// per-queue drop/spill/stall counts.
func (b *Broker) FlowStats() []QueueStats { return b.srv.FlowStats() }

// FederationFilters reports the broker's federation-plane filter count
// (its own subscribers' originals plus per-link interests) — the
// quantity the paper's LC counts for one mesh node.
func (b *Broker) FederationFilters() int { return b.srv.FederationFilters() }

// AddPeer adds a peer broker address to the intended dial set at
// runtime; the control plane dials it, keeps it dialed, and the
// spanning-tree election decides whether the new link carries traffic
// or stands by. Adding an address already intended is a no-op.
func (b *Broker) AddPeer(addr string) { b.srv.AddPeer(addr) }

// RemovePeer removes a peer broker address from the intended dial set
// at runtime, closing any live connection to it; the election routes
// around the edge if the remaining topology allows. Only this side's
// dial intent is removed — a peer that dials us stays accepted.
func (b *Broker) RemovePeer(addr string) { b.srv.RemovePeer(addr) }

// SetPeers replaces the whole intended peer dial set at runtime
// (re-peering after a config reload: cmd/broker wires SIGHUP here).
func (b *Broker) SetPeers(addrs []string) { b.srv.SetPeers(addrs) }

// TopologyStats snapshots the federation control plane: brokers and
// agreed edges in the link-state database, elected active and standby
// links, failovers and re-routed events, reconciler and heartbeat
// activity, and the intended peer set.
func (b *Broker) TopologyStats() TopologyStats { return b.srv.TopologyStats() }

// Advertised returns the event classes the broker holds advertisements
// for (advertisements disseminate from publishers through the hierarchy
// and across the federation).
func (b *Broker) Advertised() []string { return b.srv.Advertised() }

// PartitionStats snapshots the broker's partition plane: the replica
// group, the agreed map epoch, partitions owned here, publisher
// redirects issued and off-owner publishes absorbed, and consumer-group
// membership. Zero-valued outside a replica group.
func (b *Broker) PartitionStats() PartitionStats { return b.srv.PartitionStats() }

// RemotePublisher is a publisher client connected to a networked broker.
type RemotePublisher struct {
	pub    *broker.Publisher
	stages int
}

// DialPublisher connects a publisher to the broker at addr.
func DialPublisher(addr, id string) (*RemotePublisher, error) {
	p, err := broker.DialPublisher(addr, id)
	if err != nil {
		return nil, err
	}
	return &RemotePublisher{pub: p, stages: 4}, nil
}

// Publish sends one event to the broker.
func (p *RemotePublisher) Publish(e *Event) error { return p.pub.Publish(e) }

// PublishBatch sends a run of events in one wire frame.
func (p *RemotePublisher) PublishBatch(events []*Event) error {
	return p.pub.PublishBatch(events)
}

// Advertise announces an event class with its attributes ordered from
// most general to least general, exactly as System.Advertise does; the
// advertisement disseminates through the hierarchy and across the
// federation. The stage association uses the canonical four-stage depth
// (three broker stages plus the subscriber stage), which accommodates
// PeerMaxStage weakening up to 3.
func (p *RemotePublisher) Advertise(class string, attrs ...string) error {
	ad, err := typing.NewAdvertisement(class, p.stages, attrs...)
	if err != nil {
		return err
	}
	return p.pub.Advertise(ad)
}

// PartitionEpoch reports the epoch of the partition map the publisher
// is routing by, or 0 while it is unpartitioned (no broker has
// redirected it yet, or the deployment has no replica group).
func (p *RemotePublisher) PartitionEpoch() uint64 { return p.pub.PartitionEpoch() }

// Close tears the publisher connection down.
func (p *RemotePublisher) Close() error { return p.pub.Close() }

// RemoteSubscription is a live subscription served by a networked
// broker.
type RemoteSubscription struct {
	sub *broker.Subscriber
}

// DialSubscriber subscribes at the broker at addr (following placement
// redirects in a hierarchy) and delivers matching events to handler on a
// dedicated goroutine. The subscription text is one conjunctive filter
// in the same language as System.Subscribe (dial once per disjunct for a
// disjunction). In a federation, the interest propagates to peer brokers
// in hop-weakened form, and matching events published anywhere in the
// mesh are forwarded here.
func DialSubscriber(addr, id, subscription string, handler func(*Event)) (*RemoteSubscription, error) {
	f, err := filter.ParseFilter(subscription)
	if err != nil {
		return nil, err
	}
	s, err := broker.DialSubscriber(addr, id, f, broker.SubscriberOptions{}, handler)
	if err != nil {
		return nil, err
	}
	return &RemoteSubscription{sub: s}, nil
}

// DialGroupSubscriber joins the named consumer group at the broker at
// addr: every member dialing the same broker with the same group name
// shares one logical subscription, and each matching event is delivered
// to exactly one member (competing consumers), so adding members
// divides the stream instead of copying it. The group holds one durable
// cursor — events arriving while no member can take them spill there
// and replay to the next member — and each delivery is leased: a member
// that disconnects or stalls without acknowledging forfeits its
// in-flight events to the survivors (at-least-once, unordered across
// members). All members of one group must dial the same broker.
func DialGroupSubscriber(addr, id, group, subscription string, handler func(*Event)) (*RemoteSubscription, error) {
	f, err := filter.ParseFilter(subscription)
	if err != nil {
		return nil, err
	}
	s, err := broker.DialSubscriber(addr, id, f, broker.SubscriberOptions{Group: group}, handler)
	if err != nil {
		return nil, err
	}
	return &RemoteSubscription{sub: s}, nil
}

// Stats reports events received (pre perfect filtering) and delivered.
func (s *RemoteSubscription) Stats() (received, delivered uint64) { return s.sub.Stats() }

// Close unsubscribes and tears the connection down.
func (s *RemoteSubscription) Close() error { return s.sub.Close() }
