package routing

import (
	"sort"
	"time"
	"unsafe"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/index"
)

// NodeID identifies a broker node or subscriber in the overlay.
type NodeID string

// Table is a broker's filtering and forwarding table: entries of the form
// <filter, id-list> (Figure 6) with a lease per (filter, id) association
// (Section 4.3). Table is not safe for concurrent use; runtimes serialize
// access per node.
type Table struct {
	engine  index.Engine
	filters map[string]*filter.Filter // key -> stored filter
	leases  map[string]map[NodeID]time.Time
}

// NewTable creates a table backed by the matching engine cfg selects.
// The zero Config names the indexed table with exact type matching;
// overlay, broker and simulator all build their tables through the same
// index.Config.
func NewTable(cfg index.Config) *Table {
	return &Table{
		engine:  index.New(cfg),
		filters: make(map[string]*filter.Filter),
		leases:  make(map[string]map[NodeID]time.Time),
	}
}

// EngineShape reports how the stored population maps onto the matching
// engine's structures (see index.Shape). Like the table's other calls it
// must run on the goroutine that owns the table.
func (t *Table) EngineShape() index.Shape { return index.ShapeOf(t.engine) }

// Insert associates id with f under a lease expiring at expiry. Inserting
// an existing association refreshes its lease.
func (t *Table) Insert(f *filter.Filter, id NodeID, expiry time.Time) {
	key := f.Key()
	if _, ok := t.filters[key]; !ok {
		t.filters[key] = f.Clone()
		t.leases[key] = make(map[NodeID]time.Time)
	}
	t.engine.Insert(f, string(id))
	t.leases[key][id] = expiry
}

// Renew extends the lease of the (f, id) association; it reports whether
// the association existed.
func (t *Table) Renew(f *filter.Filter, id NodeID, expiry time.Time) bool {
	key := f.Key()
	ids, ok := t.leases[key]
	if !ok {
		return false
	}
	if _, ok := ids[id]; !ok {
		return false
	}
	ids[id] = expiry
	return true
}

// Remove drops the (f, id) association immediately (explicit unsubscribe,
// the optional optimization of Section 4.3).
func (t *Table) Remove(f *filter.Filter, id NodeID) {
	key := f.Key()
	ids, ok := t.leases[key]
	if !ok {
		return
	}
	delete(ids, id)
	t.engine.Remove(f, string(id))
	if len(ids) == 0 {
		delete(t.leases, key)
		delete(t.filters, key)
	}
}

// Sweep removes every association whose lease expired at or before now
// and returns the IDs removed (with duplicates when an ID held several
// filters).
func (t *Table) Sweep(now time.Time) []NodeID {
	var removed []NodeID
	for key, ids := range t.leases {
		f := t.filters[key]
		for id, expiry := range ids {
			if !expiry.After(now) {
				delete(ids, id)
				t.engine.Remove(f, string(id))
				removed = append(removed, id)
			}
		}
		if len(ids) == 0 {
			delete(t.leases, key)
			delete(t.filters, key)
		}
	}
	return removed
}

// Match returns the IDs to forward the event to (sorted, deduplicated)
// and the number of distinct filters that matched. The event may be a
// decoded *event.Event or a zero-copy *event.Raw wire view.
func (t *Table) Match(e event.View) ([]NodeID, int) {
	ids, matched := t.engine.Match(e)
	return idsAsNodeIDs(ids), matched
}

// idsAsNodeIDs reinterprets the engine's ID slice as []NodeID without
// copying: NodeID's underlying type is string, so the layouts are
// identical, and the engine hands each result slice over — nothing else
// aliases it.
func idsAsNodeIDs(ids []string) []NodeID {
	return *(*[]NodeID)(unsafe.Pointer(&ids))
}

// MatchBatch matches a batch of events in one engine pass. Results align
// positionally with events; each ID list is sorted and deduplicated, so
// per-event output is identical to calling Match event by event.
func (t *Table) MatchBatch(events []event.View) (ids [][]NodeID, matched []int) {
	rs := index.MatchEach(t.engine, events)
	ids = make([][]NodeID, len(rs))
	matched = make([]int, len(rs))
	for i, r := range rs {
		ids[i] = idsAsNodeIDs(r.IDs)
		matched[i] = r.Matched
	}
	return ids, matched
}

// Filters returns the distinct stored filters in deterministic (key)
// order.
func (t *Table) Filters() []*filter.Filter {
	keys := make([]string, 0, len(t.filters))
	for k := range t.filters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*filter.Filter, len(keys))
	for i, k := range keys {
		out[i] = t.filters[k]
	}
	return out
}

// Len reports the number of distinct stored filters.
func (t *Table) Len() int { return len(t.filters) }

// HasID reports whether any stored filter is still associated with id.
func (t *Table) HasID(id NodeID) bool {
	for _, ids := range t.leases {
		if _, ok := ids[id]; ok {
			return true
		}
	}
	return false
}

// IDsFor returns the IDs associated with the filter, sorted.
func (t *Table) IDsFor(f *filter.Filter) []NodeID {
	ids, ok := t.leases[f.Key()]
	if !ok {
		return nil
	}
	out := make([]NodeID, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindCovering searches for the strongest stored filter covering f whose
// association includes at least one ID accepted by validTarget, and
// returns that ID. This is the covering search of the Figure 5 placement
// protocol. validTarget guards against redirecting a subscriber to
// another subscriber: only broker children are valid redirect targets
// (an ambiguity the paper's pseudo-code leaves open).
func (t *Table) FindCovering(f *filter.Filter, conf filter.Conformance, validTarget func(NodeID) bool) (NodeID, bool) {
	var bestFilter *filter.Filter
	var bestID NodeID
	strong := filter.NewStrong(f, conf)
	for key, stored := range t.filters {
		if !strong.CoveredBy(stored) {
			continue
		}
		var candidate NodeID
		found := false
		for _, id := range t.idsSorted(key) {
			if validTarget == nil || validTarget(id) {
				candidate = id
				found = true
				break
			}
		}
		if !found {
			continue
		}
		if bestFilter == nil || filter.Covers(bestFilter, stored, conf) {
			bestFilter = stored
			bestID = candidate
		}
	}
	if bestFilter == nil {
		return "", false
	}
	return bestID, true
}

func (t *Table) idsSorted(key string) []NodeID {
	ids := t.leases[key]
	out := make([]NodeID, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
