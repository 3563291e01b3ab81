package index

// Shape reports how a subscription population maps onto an engine's
// structures — the answer to "does this population defeat the index?"
// without a profile. Matching cost per event is roughly the satisfied
// selective constraints plus PresenceMax (for events carrying that
// attribute) plus ScanEntries on the event's attributes plus ClassOnly
// plus Oversize plus Unindexed; a healthy alarm population is almost all
// Paired with the other terms near zero. The five by-path counts sum to
// the engine's stored filters.
type Shape struct {
	// Live filters by the path an event takes to them.
	Paired    int `json:"paired"`    // access predicate ∧ threshold: untouched unless the access predicate hits
	General   int `json:"general"`   // counted constraint by constraint
	ClassOnly int `json:"classOnly"` // no constraints: collected for every event
	Oversize  int `json:"oversize"`  // beyond the counting range: evaluated directly for every event
	Unindexed int `json:"unindexed"` // held by the naive reference table, which has no predicate indexes
	// Deferred counts the live filters (paired or general) whose
	// presence constraints are verified at hit time instead of counted.
	Deferred int `json:"deferredPresence"`
	// ScanEntries is the scan residue (contains, !=, exotic operands)
	// across attributes: evaluated linearly for every event carrying the
	// attribute.
	ScanEntries int `json:"scanEntries"`
	// PresenceMax is the longest per-attribute presence posting: slots
	// bumped for every event carrying that attribute. Only filters made
	// of presence constraints alone land there.
	PresenceMax int `json:"presencePostingMax"`
}

// Shape reports the table's shape. The plan counts are maintained by
// Insert and dropSlot; only the per-attribute indexes are walked.
func (t *IndexedTable) Shape() Shape {
	sh := Shape{
		Paired:    t.plans[planPaired],
		General:   t.plans[planGeneral],
		ClassOnly: t.plans[planClassOnly],
		Oversize:  t.plans[planOversize],
		Deferred:  t.deferred,
	}
	for _, p := range t.attrs {
		sh.ScanEntries += len(p.scan)
		sh.PresenceMax = max(sh.PresenceMax, len(p.present.scs))
	}
	return sh
}

// ShapeOf reports eng's shape: its own account when it keeps one, all of
// its filters Unindexed otherwise. Like the rest of Engine it belongs to
// the goroutine that owns eng.
func ShapeOf(eng Engine) Shape {
	if s, ok := eng.(interface{ Shape() Shape }); ok {
		return s.Shape()
	}
	return Shape{Unindexed: eng.Len()}
}
