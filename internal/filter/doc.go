// Package filter implements the subscription language of the paper:
// conjunctive filters over typed attributes (Definition 1), the covering
// relations on filters and events (Definitions 2 and 3), wildcard
// attribute filters and the standard subscription filter format
// (Section 4.4), and a text parser for subscriptions.
//
// A filter is a conjunction of constraints, each of the paper's
// name-value-operator tuple form, plus an optional event class constraint
// with subtype (conformance) semantics. Disjunctions are represented one
// level up as Subscription, a set of filters of which at least one must
// match.
//
// Covering is decided per attribute over canonical domains (domain.go).
// Strong prepares the strong side of many checks once, walking a
// filter's constraints in place; CoverSet indexes stored filters by an
// equality or prefix anchor so "does any stored filter cover f?" — the
// absorb and pruning question of subscription propagation — runs the
// exact check only on filters that can cover f, with the verdicts of
// checking them all. Filter.Key renders a filter's canonical text with
// one exactly-sized allocation.
//
// Concurrency and ownership: Filter and Subscription values are
// immutable after construction by convention — every consumer that
// stores one long-term (routing tables, matching engines) clones it
// first, so a caller may reuse or mutate its own copy freely. Matching
// (Filter.Matches, Covers) reads shared state only and is safe to call
// concurrently on the same filter; Conformance implementations injected
// for class matching must themselves be concurrency-safe (the typing
// registry is).
package filter
