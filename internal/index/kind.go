package index

import (
	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// Kind names a matching-engine implementation.
type Kind int

const (
	// KindIndexed selects the predicate-indexed counting engine: sorted
	// threshold arrays, prefix/suffix postings and presence lists keep
	// matching logarithmic for the expressive (non-equality) predicates
	// too. The default, and the only engine a runtime builds.
	KindIndexed Kind = iota
	// KindNaive selects the Figure 6 table: every filter evaluated
	// against every event. The reference the indexed engine is tested
	// and measured against.
	KindNaive
)

// String returns the engine name.
func (k Kind) String() string {
	if k == KindNaive {
		return "naive"
	}
	return "indexed"
}

// Config selects and parameterizes a matching engine. The zero value
// selects the indexed table with exact type matching.
type Config struct {
	// Kind picks the engine implementation.
	Kind Kind
	// Conf resolves event class conformance (type-based subscribing);
	// nil means exact type names.
	Conf filter.Conformance
}

// New constructs the engine cfg selects. This is the single engine
// selection point shared by the overlay, the networked broker and the
// simulator.
func New(cfg Config) Engine {
	if cfg.Kind == KindNaive {
		return NewNaiveTable(cfg.Conf)
	}
	return NewIndexedTable(cfg.Conf)
}

// MatchResult is one event's matching outcome: the associated IDs (sorted
// and deduplicated) and the number of filters evaluated to true.
type MatchResult struct {
	IDs     []string
	Matched int
}

// MatchEach matches a batch of events through eng, one Match per event.
// Results are positionally aligned with events.
func MatchEach(eng Engine, events []event.View) []MatchResult {
	out := make([]MatchResult, len(events))
	for i, e := range events {
		out[i].IDs, out[i].Matched = eng.Match(e)
	}
	return out
}
