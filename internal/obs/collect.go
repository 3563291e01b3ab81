package obs

import (
	"strconv"

	"eventsys/internal/flow"
	"eventsys/internal/metrics"
	"eventsys/internal/store"
)

// This file maps the system's existing stats surfaces onto exposition
// families. Every family carries the eventsys_ prefix and a node label,
// so several brokers (or a whole in-process hierarchy) merge into one
// scrape. The conservation identity across the node families —
// published == delivered + dropped + stored — is documented as PromQL
// in docs/ARCHITECTURE.md.

// CollectNodeStats writes one node's counters: the LC/RLC/MR inputs
// (filters, received, matched), the delivery ledger (forwarded,
// delivered, reason-labeled drops, store traffic), flow-control and
// federation-plane activity, and the derived per-node LC and MR gauges.
func CollectNodeStats(w *MetricWriter, stats ...metrics.NodeStats) {
	for _, s := range stats {
		l := []string{"node", s.NodeID, "stage", strconv.Itoa(s.Stage)}
		w.Gauge("eventsys_node_filters",
			"Filters stored at the node (the paper's LC multiplier).", float64(s.Filters), l...)
		w.Counter("eventsys_node_received_events_total",
			"Events received for filtering.", float64(s.Received), l...)
		w.Counter("eventsys_node_matched_events_total",
			"Events that matched at least one local filter.", float64(s.Matched), l...)
		w.Counter("eventsys_node_forwarded_events_total",
			"Event copies forwarded to children.", float64(s.Forwarded), l...)
		w.Counter("eventsys_node_delivered_events_total",
			"Events delivered to local subscribers.", float64(s.Delivered), l...)
		for r := metrics.DropReason(0); r < metrics.NumDropReasons; r++ {
			rl := append(append([]string(nil), l...), "reason", r.String())
			w.Counter("eventsys_node_dropped_events_total",
				"Events dropped, by reason; reasons sum to the node's total drops.",
				float64(s.DroppedBy[r]), rl...)
		}
		w.Counter("eventsys_node_store_appended_events_total",
			"Events appended to the durable store for this node's subscriptions.",
			float64(s.StoreAppended), l...)
		w.Counter("eventsys_node_store_replayed_events_total",
			"Events replayed from the durable store.", float64(s.StoreReplayed), l...)
		w.Counter("eventsys_node_store_bytes_total",
			"Bytes written to the durable store.", float64(s.StoredBytes), l...)
		w.Counter("eventsys_node_flow_stalls_total",
			"Times a Block-policy queue made a producer wait.", float64(s.Stalled), l...)
		w.Counter("eventsys_node_spilled_events_total",
			"Events diverted to backlog storage under SpillToStore.", float64(s.Spilled), l...)
		w.Counter("eventsys_node_credit_granted_total",
			"Event credits granted to senders.", float64(s.CreditGranted), l...)
		w.Counter("eventsys_node_credit_waits_total",
			"Times an outbound writer ran out of credit and waited.", float64(s.CreditWaits), l...)
		w.Counter("eventsys_node_match_batches_total",
			"Batched matching passes over the node's table.", float64(s.BatchesMatched), l...)
		w.Counter("eventsys_node_match_batch_events_total",
			"Events carried by matched batches (ratio to passes = avg coalescing).",
			float64(s.BatchSizeSum), l...)
		w.Counter("eventsys_node_peer_propagated_total",
			"Subscription entries propagated to federation peer links.",
			float64(s.PeerPropagated), l...)
		w.Counter("eventsys_node_peer_suppressed_total",
			"Subscription entries pruned by covering instead of propagated.",
			float64(s.PeerSuppressed), l...)
		w.Counter("eventsys_node_peer_absorbed_total",
			"Local subscriptions absorbed by a filter their subscriber already holds.",
			float64(s.PeerAbsorbed), l...)
		w.Counter("eventsys_node_cover_checks_total",
			"Exact covering checks run by subscription absorb and pruning.",
			float64(s.CoverChecks), l...)
		w.Counter("eventsys_node_peer_forwarded_events_total",
			"Events forwarded to federation peer links.", float64(s.PeerForwarded), l...)
		w.Counter("eventsys_node_peer_resyncs_total",
			"Peer-link SubSet resyncs.", float64(s.PeerResyncs), l...)
		w.Gauge("eventsys_node_lc",
			"Local cost: received x filters (paper Section 5.1).", s.LC(), l...)
		w.Gauge("eventsys_node_matching_rate",
			"Matching rate: matched / received (0 when idle).", s.MR(), l...)
	}
}

// CollectFlow writes one node's bounded-queue gauges, one series set per
// queue (core inlet, outbound connection queues, mailboxes, delivery
// queues).
func CollectFlow(w *MetricWriter, node string, qs []flow.Snapshot) {
	for _, q := range qs {
		l := []string{"node", node, "queue", q.Name}
		w.Gauge("eventsys_queue_depth",
			"Current queue occupancy.", float64(q.Depth), l...)
		w.Gauge("eventsys_queue_window",
			"Queue policy bound.", float64(q.Window), l...)
		w.Gauge("eventsys_queue_depth_max",
			"Queue high-water mark.", float64(q.DepthMax), l...)
		w.Counter("eventsys_queue_enqueued_total",
			"Items admitted to the queue.", float64(q.Enqueued), l...)
		w.Counter("eventsys_queue_dropped_total",
			"Items discarded by the queue's policy.", float64(q.Dropped), l...)
		w.Counter("eventsys_queue_spilled_total",
			"Items handed to the queue's spill target.", float64(q.Spilled), l...)
		w.Counter("eventsys_queue_stalls_total",
			"Block pushes that had to wait for space.", float64(q.Stalls), l...)
	}
}

// CollectStore writes the durable store's counters.
func CollectStore(w *MetricWriter, node string, st store.Stats) {
	l := []string{"node", node}
	w.Gauge("eventsys_store_segments",
		"Retained log segments.", float64(st.Segments), l...)
	w.Gauge("eventsys_store_bytes",
		"Retained log size in bytes.", float64(st.Bytes), l...)
	w.Counter("eventsys_store_appended_records_total",
		"Records appended since open.", float64(st.Appended), l...)
	w.Counter("eventsys_store_replayed_records_total",
		"Records replayed since open.", float64(st.Replayed), l...)
	w.Counter("eventsys_store_evicted_records_total",
		"Unconsumed records lost to the retention bound.", float64(st.Evicted), l...)
	w.Gauge("eventsys_store_pending_records",
		"Total backlog over all cursors.", float64(st.Pending), l...)
}
