// Package routing implements the broker-node core of the multi-stage
// filtering architecture (Section 4): the filtering and forwarding table
// (Figure 6), the subscription placement automaton (Figure 5), TTL-based
// soft-state leases (Section 4.3), and wildcard subscription handling
// (Sections 4.4–4.5).
//
// The package is pure logic: no I/O, no goroutines, no wall clock. Time
// flows in through method parameters, randomness through injected
// generators, so the deterministic simulator, the concurrent overlay and
// the TCP broker runtime all share identical behavior.
//
// Concurrency and ownership invariants: Node and Table are NOT safe for
// concurrent use — every runtime serializes all access to a node's core
// behind exactly one goroutine (the overlay actor, the broker core
// loop, or the single-threaded simulator). The matching engine inside a
// Table is owned by that table. HandleEventBatch matches a run of events
// in one table pass with per-event counter semantics identical to
// HandleEvent — batching changes throughput, never observable routing
// results or per-destination order.
package routing
