package transport

import (
	"encoding/binary"
	"fmt"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/typing"
)

// MsgType tags a frame.
type MsgType uint8

// Wire message types.
const (
	TypeInvalid MsgType = iota
	TypeHello
	TypePublish
	TypeDeliver
	TypeSubscribe
	TypeSubscribeReply
	TypeReqInsert
	TypeRenew
	TypeUnsubscribe
	TypeAdvertise
	TypePublishBatch
	TypePeerHello
	TypeSubSet
	TypeSubUpdate
	TypeForward
	TypeForwardBatch
	TypeCredit
	TypeCreditAck
	TypeLinkState
	TypePeerPing
	TypePartitionRedirect
	TypeGroupAck
)

// PeerKind identifies what a connecting peer is.
type PeerKind uint8

// Peer kinds in the Hello handshake.
const (
	PeerInvalid PeerKind = iota
	PeerPublisher
	PeerSubscriber
	PeerChildBroker
	// PeerMeshBroker marks a federated peer broker connection. It never
	// travels in a Hello frame (peers handshake with PeerHello instead);
	// brokers use it to tag peer links internally.
	PeerMeshBroker
)

// Message is one wire protocol message.
type Message interface {
	Type() MsgType
	// encode appends the message body to b.
	encode(b []byte) []byte
}

// Hello opens every connection: who the peer is, its identity, and — for
// child brokers — the address it listens on (so subscription redirects
// can name it).
type Hello struct {
	Kind PeerKind
	ID   string
	Addr string
}

// Publish injects an event (publisher → broker, parent → child). The
// event travels as its canonical encoded form: the publisher encodes
// once, and every broker hop matches and relays the same bytes.
type Publish struct {
	Event *event.Raw
	// Epoch is the partition-map epoch the publisher routed this event
	// under; zero means "no epoch" (an unpartitioned publisher, or one
	// that has not yet received a PartitionRedirect). A broker holding a
	// different epoch still processes the event — interests are flooded
	// everywhere, so any ingress broker delivers completely — but
	// answers with a PartitionRedirect so future publishes fan in to
	// the owning replica.
	Epoch uint64
}

// PublishBatch injects a batch of events in one frame (publisher →
// broker, parent → child), amortizing framing and syscall cost on the
// publish fast path. Events are processed in slice order, so a batch
// preserves the publisher's ordering exactly as a sequence of Publish
// frames would.
type PublishBatch struct {
	Events []*event.Raw
	// Epoch is the partition-map epoch, exactly as on Publish.
	Epoch uint64
}

// Deliver hands an event to a subscriber (broker → subscriber). The
// subscriber runtime is the only place the raw event is materialized.
type Deliver struct {
	Event *event.Raw
	// Seq identifies this delivery within a consumer group: nonzero on
	// deliveries to group members, who acknowledge it with GroupAck so
	// the broker can advance the group cursor or redeliver on failure.
	// Zero for ordinary (non-group) subscribers — no ack expected.
	Seq uint64
}

// Subscribe runs one step of the Figure 5 placement protocol.
type Subscribe struct {
	SubscriberID string
	Filter       *filter.Filter
	// Group, when nonempty, joins a consumer group: N subscribers
	// naming the same group share one durable subscription, events are
	// divided among the live members, and a member's unacked deliveries
	// are redelivered to the survivors when it fails.
	Group string
}

// SubscribeReply answers Subscribe: join-At(Target) or accepted-At.
type SubscribeReply struct {
	Accepted bool
	// TargetAddr is the address to re-send the subscription to when not
	// accepted.
	TargetAddr string
	// Stored is the weakened filter the broker stored (renewal key).
	Stored *filter.Filter
}

// ReqInsert propagates a weakened filter from child broker to parent.
// Propagation up the broker chain is asynchronous: each broker inserts
// and autonomously forwards the further-weakened filter to its own
// parent (the in-process overlay offers a synchronous variant).
type ReqInsert struct {
	ChildID string
	Filter  *filter.Filter
}

// Renew refreshes the lease on (Filter, ID).
type Renew struct {
	ID     string
	Filter *filter.Filter
}

// Unsubscribe removes (Filter, ID) immediately.
type Unsubscribe struct {
	ID     string
	Filter *filter.Filter
}

// Advertise disseminates an event class schema and its attribute-stage
// association (Section 4.1).
type Advertise struct {
	Ad *typing.Advertisement
}

// PeerHello opens a broker-to-broker federation link (SIENA-style
// server-to-server peering over an acyclic graph). The dialing broker
// sends it first; the accepting broker replies with its own. Each side
// then sends a SubSet resync of its subscription state for the link.
type PeerHello struct {
	// ID is the sender's broker identity.
	ID string
	// Addr is the sender's listen address (operational metadata).
	Addr string
}

// SubEntry is one element of peer subscription state: a subscriber's
// original (stage-0) filter together with the receiving broker's hop
// distance from the subscriber's home broker. The receiver stores the
// hop-weakened form for matching — carrying the original keeps onward
// weakening exact at every distance — and propagates the entry to its
// other links with Hops+1, pruned by covering.
type SubEntry struct {
	Hops   int
	Filter *filter.Filter
}

// SubSet replaces the receiver's entire interest state for the sending
// link: sent on link (re-)establishment so a reconnect resynchronizes
// subscription state accumulated or lost while the link was down.
type SubSet struct {
	Entries []SubEntry
}

// SubUpdate propagates one new subscription filter across a peer link
// (incremental; SubSet is the bulk form).
type SubUpdate struct {
	Entry SubEntry
}

// Forward carries an event across a peer link (reverse-path forwarding:
// the receiver matches it locally and relays it to every other peer link
// with a matching interest, never back to the sender).
type Forward struct {
	Event *event.Raw
}

// ForwardBatch is Forward for a run of events in one frame, amortizing
// framing and syscalls exactly as PublishBatch does on the publish path.
// Slice order is the sender's forwarding order.
type ForwardBatch struct {
	Events []*event.Raw
}

// Credit grants the recipient the right to transmit Grant more events
// on this connection (credit-based flow control). The event-receiving
// side sends an initial Credit after the handshake and replenishes in
// batches as its core processes events; the sending side decrements one
// credit per event in Publish/PublishBatch/Deliver/Forward/ForwardBatch
// frames and stalls event transmission — never control frames — when it
// runs dry. A saturated receiver simply stops granting, which cascades
// hop by hop until the original publisher blocks. The scheme is
// opt-in on the sender side: a receiver that never sends Credit leaves
// the connection ungoverned (pre-credit behavior), and a sender that
// never acks is simply never gated. Both ends must still speak this
// protocol revision — a pre-credit decoder rejects the frame type and
// drops the connection — so clients and brokers upgrade together.
type Credit struct {
	Grant uint32
}

// CreditAck is the sender's one-time response to the first Credit on a
// connection: it confirms that the sender honors credit flow control
// and echoes the window it observed. Granters use it to distinguish a
// credit-governed peer from a legacy one (for stats and diagnostics);
// it carries no flow-control state itself.
type CreditAck struct {
	Window uint32
}

// LinkState floods one broker's adjacency record through the federation
// (a link-state advertisement). Every broker keeps the latest record per
// origin, keyed by Seq, and all brokers therefore converge on the same
// view of which configured links are up — the input to the deterministic
// spanning-tree election that picks which redundant links carry traffic.
// A record with a Seq not newer than the stored one is dropped without
// re-flooding, so floods terminate even on cyclic link sets.
type LinkState struct {
	// Origin is the broker whose adjacency this record describes.
	Origin string
	// Seq orders records from the same origin; higher wins.
	Seq uint64
	// Peers are the broker IDs Origin currently holds live links to.
	Peers []string
	// Addr is Origin's client listen address, carried so partition
	// redirects can name where publishers should dial.
	Addr string
	// Part is Origin's partition replica group ("" = unpartitioned).
	// Brokers advertising the same group divide the event space among
	// themselves; the partition map is derived from the converged
	// link-state database, never separately gossiped.
	Part string
}

// ReplicaInfo names one replica in a PartitionRedirect.
type ReplicaInfo struct {
	ID   string
	Addr string
}

// PartitionRedirect answers a Publish/PublishBatch whose Epoch differs
// from the broker's current partition map. The in-flight events were
// still processed (any ingress broker delivers completely — ownership
// is load placement, not correctness), but the publisher should adopt
// the carried map and fan subsequent events in to the owning replicas.
type PartitionRedirect struct {
	// Epoch is the current partition-map epoch.
	Epoch uint64
	// Partitions is the fixed partition count.
	Partitions uint32
	// Replicas is the participating replica set, sorted by ID.
	Replicas []ReplicaInfo
}

// GroupAck acknowledges one consumer-group delivery (subscriber →
// broker): the member finished handling the delivery with this Seq.
// The broker releases its lease and advances the group's durable
// cursor past every contiguously acked event.
type GroupAck struct {
	Seq uint64
}

// PeerPing is the peer-link heartbeat: an empty frame on the control
// lane whose only job is to be received. Liveness is inferred from frame
// arrival of any kind, so a ping needs no reply — both sides ping, both
// sides observe traffic, and a silent peer trips the dead-link timeout.
type PeerPing struct{}

// Type implementations.
func (Hello) Type() MsgType             { return TypeHello }
func (Publish) Type() MsgType           { return TypePublish }
func (PublishBatch) Type() MsgType      { return TypePublishBatch }
func (Deliver) Type() MsgType           { return TypeDeliver }
func (Subscribe) Type() MsgType         { return TypeSubscribe }
func (SubscribeReply) Type() MsgType    { return TypeSubscribeReply }
func (ReqInsert) Type() MsgType         { return TypeReqInsert }
func (Renew) Type() MsgType             { return TypeRenew }
func (Unsubscribe) Type() MsgType       { return TypeUnsubscribe }
func (Advertise) Type() MsgType         { return TypeAdvertise }
func (PeerHello) Type() MsgType         { return TypePeerHello }
func (SubSet) Type() MsgType            { return TypeSubSet }
func (SubUpdate) Type() MsgType         { return TypeSubUpdate }
func (Forward) Type() MsgType           { return TypeForward }
func (ForwardBatch) Type() MsgType      { return TypeForwardBatch }
func (Credit) Type() MsgType            { return TypeCredit }
func (CreditAck) Type() MsgType         { return TypeCreditAck }
func (LinkState) Type() MsgType         { return TypeLinkState }
func (PeerPing) Type() MsgType          { return TypePeerPing }
func (PartitionRedirect) Type() MsgType { return TypePartitionRedirect }
func (GroupAck) Type() MsgType          { return TypeGroupAck }

func (m Hello) encode(b []byte) []byte {
	b = append(b, uint8(m.Kind))
	b = appendStr(b, m.ID)
	return appendStr(b, m.Addr)
}

func (m Publish) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Epoch)
	return appendRaw(b, m.Event)
}

func (m Deliver) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Seq)
	return appendRaw(b, m.Event)
}

func (m PublishBatch) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Epoch)
	return appendRaws(b, m.Events)
}

func (m Subscribe) encode(b []byte) []byte {
	b = appendStr(b, m.SubscriberID)
	b = appendFilter(b, m.Filter)
	return appendStr(b, m.Group)
}

func (m SubscribeReply) encode(b []byte) []byte {
	b = appendBool(b, m.Accepted)
	b = appendStr(b, m.TargetAddr)
	b = appendBool(b, m.Stored != nil)
	if m.Stored != nil {
		b = appendFilter(b, m.Stored)
	}
	return b
}

func (m ReqInsert) encode(b []byte) []byte {
	return appendFilter(appendStr(b, m.ChildID), m.Filter)
}

func (m Renew) encode(b []byte) []byte {
	return appendFilter(appendStr(b, m.ID), m.Filter)
}

func (m Unsubscribe) encode(b []byte) []byte {
	return appendFilter(appendStr(b, m.ID), m.Filter)
}

func (m PeerHello) encode(b []byte) []byte {
	return appendStr(appendStr(b, m.ID), m.Addr)
}

func (e SubEntry) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(e.Hops))
	return appendFilter(b, e.Filter)
}

func (m SubSet) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = e.encode(b)
	}
	return b
}

func (m SubUpdate) encode(b []byte) []byte { return m.Entry.encode(b) }

func (m Forward) encode(b []byte) []byte { return appendRaw(b, m.Event) }

func (m ForwardBatch) encode(b []byte) []byte { return appendRaws(b, m.Events) }

func (m Credit) encode(b []byte) []byte    { return binary.AppendUvarint(b, uint64(m.Grant)) }
func (m CreditAck) encode(b []byte) []byte { return binary.AppendUvarint(b, uint64(m.Window)) }

func (m LinkState) encode(b []byte) []byte {
	b = appendStr(b, m.Origin)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, uint64(len(m.Peers)))
	for _, p := range m.Peers {
		b = appendStr(b, p)
	}
	b = appendStr(b, m.Addr)
	return appendStr(b, m.Part)
}

func (PeerPing) encode(b []byte) []byte { return b }

func (m PartitionRedirect) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, uint64(m.Partitions))
	b = binary.AppendUvarint(b, uint64(len(m.Replicas)))
	for _, r := range m.Replicas {
		b = appendStr(appendStr(b, r.ID), r.Addr)
	}
	return b
}

func (m GroupAck) encode(b []byte) []byte { return binary.AppendUvarint(b, m.Seq) }

func (m Advertise) encode(b []byte) []byte {
	b = appendStr(b, m.Ad.Class)
	b = binary.AppendUvarint(b, uint64(len(m.Ad.Attrs)))
	for _, a := range m.Ad.Attrs {
		b = appendStr(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Ad.StageAttrs)))
	for _, n := range m.Ad.StageAttrs {
		b = binary.AppendUvarint(b, uint64(n))
	}
	return b
}

// u32capped decodes a uvarint bounded to uint32 (credit quantities); an
// implausible value fails the frame rather than wrapping.
func (r *reader) u32capped() uint32 {
	v := r.uvarint()
	if v > 1<<32-1 && r.err == nil {
		r.fail("implausible credit quantity")
		return 0
	}
	return uint32(v)
}

// subEntry decodes one SubEntry, bounding the hop count (an
// attacker-controlled uvarint) to a sane distance.
func (r *reader) subEntry() SubEntry {
	hops := r.uvarint()
	if hops > 1<<20 && r.err == nil {
		r.fail("implausible hop count")
		return SubEntry{}
	}
	return SubEntry{Hops: int(hops), Filter: r.filter()}
}

// decodeMessage decodes one frame body, r.b, which the decoded message
// owns from here on.
func decodeMessage(t MsgType, r *reader) (Message, error) {
	body := r.b
	var m Message
	switch t {
	case TypeHello:
		m = Hello{Kind: PeerKind(r.u8()), ID: r.str(), Addr: r.str()}
	case TypePublish:
		m = Publish{Epoch: r.uvarint(), Event: r.rawEvent()}
	case TypePublishBatch:
		epoch := r.uvarint()
		n := r.uvarint()
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("transport: batch event count exceeds frame")
		}
		// Cap the preallocation: the count is attacker-controlled and the
		// frame-size bound alone would let one cheap frame reserve ~128
		// MiB of pointers. Decoding grows the slice as events prove real.
		capHint := n
		if capHint > 1024 {
			capHint = 1024
		}
		pb := PublishBatch{Epoch: epoch, Events: make([]*event.Raw, 0, capHint)}
		for i := uint64(0); i < n && r.err == nil; i++ {
			pb.Events = append(pb.Events, r.rawEvent())
		}
		m = pb
	case TypeDeliver:
		m = Deliver{Seq: r.uvarint(), Event: r.rawEvent()}
	case TypePeerHello:
		m = PeerHello{ID: r.str(), Addr: r.str()}
	case TypeSubSet:
		n := r.uvarint()
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("transport: subset entry count exceeds frame")
		}
		capHint := n
		if capHint > 1024 {
			capHint = 1024
		}
		ss := SubSet{Entries: make([]SubEntry, 0, capHint)}
		for i := uint64(0); i < n && r.err == nil; i++ {
			ss.Entries = append(ss.Entries, r.subEntry())
		}
		m = ss
	case TypeSubUpdate:
		m = SubUpdate{Entry: r.subEntry()}
	case TypeForward:
		m = Forward{Event: r.rawEvent()}
	case TypeForwardBatch:
		n := r.uvarint()
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("transport: forward batch event count exceeds frame")
		}
		capHint := n
		if capHint > 1024 {
			capHint = 1024
		}
		fb := ForwardBatch{Events: make([]*event.Raw, 0, capHint)}
		for i := uint64(0); i < n && r.err == nil; i++ {
			fb.Events = append(fb.Events, r.rawEvent())
		}
		m = fb
	case TypeCredit:
		m = Credit{Grant: r.u32capped()}
	case TypeCreditAck:
		m = CreditAck{Window: r.u32capped()}
	case TypeLinkState:
		ls := LinkState{Origin: r.str(), Seq: r.uvarint()}
		n := r.uvarint()
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("transport: link state peer count exceeds frame")
		}
		capHint := n
		if capHint > 1024 {
			capHint = 1024
		}
		ls.Peers = make([]string, 0, capHint)
		for i := uint64(0); i < n && r.err == nil; i++ {
			ls.Peers = append(ls.Peers, r.str())
		}
		ls.Addr = r.str()
		ls.Part = r.str()
		m = ls
	case TypePeerPing:
		m = PeerPing{}
	case TypePartitionRedirect:
		pr := PartitionRedirect{Epoch: r.uvarint(), Partitions: r.u32capped()}
		n := r.uvarint()
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("transport: redirect replica count exceeds frame")
		}
		capHint := n
		if capHint > 1024 {
			capHint = 1024
		}
		pr.Replicas = make([]ReplicaInfo, 0, capHint)
		for i := uint64(0); i < n && r.err == nil; i++ {
			pr.Replicas = append(pr.Replicas, ReplicaInfo{ID: r.str(), Addr: r.str()})
		}
		m = pr
	case TypeGroupAck:
		m = GroupAck{Seq: r.uvarint()}
	case TypeSubscribe:
		m = Subscribe{SubscriberID: r.str(), Filter: r.filter(), Group: r.str()}
	case TypeSubscribeReply:
		rep := SubscribeReply{Accepted: r.u8() == 1, TargetAddr: r.str()}
		if r.u8() == 1 {
			rep.Stored = r.filter()
		}
		m = rep
	case TypeReqInsert:
		m = ReqInsert{ChildID: r.str(), Filter: r.filter()}
	case TypeRenew:
		m = Renew{ID: r.str(), Filter: r.filter()}
	case TypeUnsubscribe:
		m = Unsubscribe{ID: r.str(), Filter: r.filter()}
	case TypeAdvertise:
		ad := &typing.Advertisement{Class: r.str()}
		na := r.uvarint()
		if na > uint64(len(body)) {
			return nil, fmt.Errorf("transport: advert attr count exceeds frame")
		}
		for i := uint64(0); i < na && r.err == nil; i++ {
			ad.Attrs = append(ad.Attrs, r.str())
		}
		ns := r.uvarint()
		if ns > uint64(len(body)) {
			return nil, fmt.Errorf("transport: advert stage count exceeds frame")
		}
		for i := uint64(0); i < ns && r.err == nil; i++ {
			ad.StageAttrs = append(ad.StageAttrs, int(r.uvarint()))
		}
		m = Advertise{Ad: ad}
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("transport: %d trailing bytes in %d message", len(body)-r.off, t)
	}
	return m, nil
}
