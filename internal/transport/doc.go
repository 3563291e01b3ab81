// Package transport defines the binary wire protocol spoken between
// networked brokers, publishers and subscribers (internal/broker) —
// Section 4's broker interactions serialized for TCP.
//
// Framing: every message is [4-byte big-endian body length][1-byte
// message type][body]. Bodies use a compact binary encoding: uvarint
// lengths, varint integers, IEEE-754 floats, length-prefixed strings.
// Frames are capped at MaxFrame to bound memory at untrusted peers, and
// every count read from the wire is validated against the frame size
// before allocation.
//
// The protocol carries exactly the interactions of Figures 5 and 6:
// Subscribe/SubscribeReply (placement), ReqInsert (upward filter
// propagation), Renew (leases), Publish/Deliver (event flow),
// PublishBatch (a coalesced run of publishes in one frame, amortizing
// framing and syscalls on the fast path — order within the batch is the
// publisher's order), Advertise (schema dissemination), plus a Hello
// handshake identifying the peer.
//
// Crossing the socket: AppendFrame encodes a frame onto a caller's
// slice; FrameBatch gathers any number of frames in a pooled buffer and
// sends them with one Write (WriteFrame is a batch of one), which is how
// a connection's writer pays one syscall per drain of its queues and not
// one per frame. FrameReader is the other half: it owns a connection's
// read side, takes what the socket holds in one Read and decodes the
// complete frames out of its buffer one by one. It reads ahead, so a
// connection keeps the same FrameReader for life; the one-shot ReadFrame
// reads a frame exactly and no byte more, for handshakes that hand the
// stream on, files and tests.
//
// Concurrency and ownership: encoders are stateless; AppendFrame,
// WriteFrame and ReadFrame are safe for concurrent use on distinct
// writers/readers, but a single net.Conn needs external serialization
// per direction (the broker gives each connection one reader and one
// writer goroutine) and a FrameBatch or FrameReader belongs to one
// goroutine. Decoded messages own their memory: every frame body is its
// own exactly-sized allocation, which event frames' Raw views alias for
// life, and nothing references a read buffer after ReadFrame returns.
// The durable store reuses the event encoding (AppendEvent/DecodeEvent),
// so a stored event and a wire event are byte-identical.
package transport
