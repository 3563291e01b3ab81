// Package index provides event-to-subscription matching engines for
// broker nodes — the filtering data structures behind the paper's
// Section 4 filtering and forwarding tables.
//
// Two engines implement the Engine interface:
//
//   - IndexedTable is the engine every runtime builds. It applies the
//     "efficient indexing and matching techniques" the paper allows: the
//     counting algorithm with a dedicated index per operator class —
//     hash postings for equality, grouped sorted threshold cores with
//     churn-absorbing delta buffers for ordering constraints,
//     per-operand-length hash postings for prefix/suffix, presence
//     lists, and paired access∧threshold groups for the dominant
//     two-constraint alarm shape — keeping per-event match cost near
//     constant (sub-microsecond medians) at million-subscription
//     populations.
//   - NaiveTable is the algorithm of Figure 6: a table of <filter,
//     id-list> entries scanned linearly per event. It is the reference
//     the indexed engine is fuzzed, tested and measured against.
//
// Construct an engine through New; the zero Config selects the indexed
// table, so runtimes share one selection path.
//
// Concurrency and ownership: neither engine is safe for concurrent use.
// Each instance is owned by exactly one goroutine (the broker core or
// actor that created it), and the indexed engine mutates per-call
// scratch state during Match. Both return Match results sorted and
// deduplicated, so identical inputs yield identical outputs whichever
// engine matches them.
package index
