// Package overlay is the concurrent in-process runtime of the multi-stage
// event system (Section 4's architecture on goroutines and channels):
// every broker node runs as an actor owning a routing.Node core,
// connected to its hierarchy neighbors by channels. Publishers inject
// events at the root; events cascade down stage by stage, filtered with
// progressively stronger (less weakened) filters; subscriber runtimes
// apply the original subscription — and any stateful application
// predicate — end to end (Figure 3).
//
// Concurrency and ownership invariants:
//
//   - One inbox per node — a flow.Queue — drained by exactly one
//     goroutine, so the routing core needs no locks. Only that
//     goroutine ever touches its routing.Node.
//   - Actors drain queued publishes into batches (capped at
//     Config.MaxBatch) and match each batch in one table pass; batches
//     forward to child actors as a unit, so coalescing survives each hop
//     down the tree. Control messages are handled singly, in mailbox
//     order — the FIFO reasoning behind Flush's tree barrier is
//     unaffected by batching.
//   - Per-subscriber delivery order equals publish order: batches
//     preserve mailbox order, per-destination grouping preserves
//     intra-batch order, and each subscriber's buffered channel is
//     drained by one dedicated goroutine.
//   - Inter-node sends abort on the system context, making shutdown
//     deadlock-free. Saturation follows Config.FlowPolicy at every
//     bounded queue (mailboxes, delivery queues): under flow.Block a
//     slow subscriber backpressures its stage-1 broker — and
//     transitively the publisher — rather than dropping events; the
//     drop policies shed (counted), and flow.SpillToStore diverts
//     delivery overflow to the subscriber's backlog for in-order
//     replay. Control messages are exempt from every policy.
//   - The durable store (Config.Store) is owned by the caller; the
//     overlay only appends/replays through its own handle goroutines.
package overlay
