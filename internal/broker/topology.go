package broker

import (
	"sort"

	"eventsys/internal/event"
	"eventsys/internal/peering"
	"eventsys/internal/transport"
)

// Topology reactions — all run on the core goroutine. The broker keeps a
// link-state database (peering.TopologyView) over the federation's
// configured links and re-runs a deterministic spanning-tree election
// whenever the database changes: redundant configured links demote to
// connected standby edges, and when an active link dies with a standby
// alternative available, the election promotes the standby and fails the
// dead link's spooled traffic over to it (make-before-break: the orphaned
// spool is only re-routed after every promoted link's SubSet resync has
// landed, so re-matching sees the new paths' real interests).

// announceTopology records this broker's current adjacency (the peer
// links with a live connection) in the database under a fresh sequence
// number and floods the LSA to every connected link.
func (s *Server) announceTopology() {
	peers := make([]string, 0, len(s.peerLinks))
	for id, link := range s.peerLinks {
		if link.pc != nil {
			peers = append(peers, id)
		}
	}
	sort.Strings(peers)
	seq := s.topo.Announce(peers)
	s.floodLinkState(transport.LinkState{Origin: s.cfg.ID, Seq: seq, Peers: peers,
		Addr: s.Addr(), Part: s.cfg.ReplicaOf}, nil)
	s.recomputePartitionMap()
}

// floodLinkState sends an LSA to every connected federation link except
// the one it arrived on. Floods terminate despite cycles because only
// database-advancing records are re-flooded (see TopologyView.Merge).
func (s *Server) floodLinkState(m transport.LinkState, except *peerConn) {
	ids := make([]string, 0, len(s.peerLinks))
	for id := range s.peerLinks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		link := s.peerLinks[id]
		if link.pc == nil || link.pc == except {
			continue
		}
		s.sendCtrl(link, m)
	}
}

// handleLinkState folds a received LSA into the database, re-floods it
// if it advanced the view, and re-runs the election. A self-echo (a peer
// replaying this broker's own pre-restart record) forces a re-announce
// that out-sequences the stale record everywhere.
func (s *Server) handleLinkState(pc *peerConn, msg transport.LinkState) {
	if pc.link == nil || msg.Origin == "" {
		return
	}
	newer, selfEcho := s.topo.Merge(msg.Origin, msg.Seq, msg.Peers, msg.Addr, msg.Part)
	if selfEcho {
		s.announceTopology()
		s.recomputeTopology()
		return
	}
	if newer {
		s.floodLinkState(msg, pc)
		s.recomputeTopology()
		s.recomputePartitionMap()
	}
}

// topologyLinkDown reacts to a federation connection loss: re-announce
// the shrunk adjacency and re-elect — if the dead link was active and a
// standby path exists, the election starts a failover.
func (s *Server) topologyLinkDown() {
	s.announceTopology()
	s.recomputeTopology()
}

// recomputeTopology reconciles every peer link against the elected
// spanning forest:
//
//   - a connected link the forest wants that hasn't synced its current
//     connection is promoted: activate, full SubSet resync, advertisement
//     replay, spool replay;
//   - a connected active link the forest no longer wants is demoted to
//     standby: its interests are withdrawn so no new traffic matches it;
//   - a dead active link the forest no longer wants enters failover when
//     the election promoted replacements — its interests keep matching
//     (and spooling) events until the replacements' resyncs land, then
//     maybeCompleteFailover re-routes the spool. With no replacement the
//     link stays active and spooling, awaiting reconnect — the original
//     durable-link semantics.
func (s *Server) recomputeTopology() {
	// A pending resync whose link died resolves to nothing: drop it so
	// failover completion is not gated on a resync that can never land.
	for id := range s.pendingResync {
		if link := s.peerLinks[id]; link == nil || link.pc == nil {
			delete(s.pendingResync, id)
		}
	}
	want := s.topo.ActiveNeighbors()
	ids := make([]string, 0, len(s.peerLinks))
	for id := range s.peerLinks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		link := s.peerLinks[id]
		if !s.topo.Known(id) {
			// No record for the peer: the database knows nothing about it
			// (fresh after a restart, or a first connect racing the
			// peer's own LSA). Acting on ignorance here would demote a
			// recovered active link or fail over a link whose peer is
			// merely not re-announced yet.
			continue
		}
		switch {
		case want[id] && link.pc != nil && !link.synced:
			// Promotion — or, for an already-active link that just
			// reconnected, the resync its new connection is owed. Only a
			// genuine standby→active transition marks a failover target:
			// a reconnect-resync restores an old path, it does not open a
			// new one, and re-routing orphaned spools at it would send
			// events back toward where they came from.
			wasStandby := !link.active
			link.active, link.synced = true, true
			link.failover = false
			s.fed.SetActive(peering.LinkID(id), true)
			entries := s.fed.Sync(peering.LinkID(id))
			s.sendCtrl(link, transport.SubSet{Entries: entriesToWire(entries)})
			link.resyncs++
			s.counters.AddPeerResyncs(1)
			if link.pc != nil { // sendCtrl may have recycled the connection
				s.pendingResync[id] = struct{}{}
				if wasStandby {
					s.promoted[id] = struct{}{}
				}
				// Replay known advertisements: a link that connected as a
				// standby missed any dissemination since (Put is
				// idempotent on the far side).
				for _, class := range s.ads.Classes() {
					if ad, ok := s.ads.Get(class); ok {
						s.sendTo(link.pc, transport.Advertise{Ad: ad})
					}
				}
				s.replayPeerSpool(link)
				s.log.Info("peer link promoted to spanning tree", "peer", id)
			}
		case link.active && !want[id] && link.pc != nil:
			// Healthy demotion: drain what the spool still owes (order),
			// then withdraw the interests so no new traffic matches. A
			// link demoted before its resync landed stops being awaited —
			// a standby peer never answers — and stops being a failover
			// target.
			s.replayPeerSpool(link)
			s.fanUpdates(s.fed.Replace(peering.LinkID(id), nil))
			s.fed.SetActive(peering.LinkID(id), false)
			link.active, link.synced = false, false
			delete(s.pendingResync, id)
			delete(s.promoted, id)
			s.log.Info("peer link standing by", "peer", id)
		}
	}
	// Second pass, after every promotion landed in s.promoted: a dead
	// active link the forest dropped fails over once a promoted standby
	// exists to hand its traffic to; with none it stays active and keeps
	// spooling until the peer reconnects.
	for _, id := range ids {
		link := s.peerLinks[id]
		if s.topo.Known(id) && link.active && !want[id] && link.pc == nil &&
			!link.failover && len(s.promoted) > 0 {
			link.failover = true
			s.failovers++
			s.log.Warn("peer link dead; failing over", "peer", id)
		}
	}
	s.maybeCompleteFailover()
}

// maybeCompleteFailover finishes an in-progress failover once every
// promoted link's SubSet resync has landed: each dead link's orphaned
// spool drains in order, every event re-matching against the promoted
// links only — they carried no interests before their resync, so nothing
// was double-routed — and events no promoted path wants re-enter the
// spool to await the original peer's return.
func (s *Server) maybeCompleteFailover() {
	// Only the promoted standbys' resyncs gate completion — a concurrent
	// reconnect-resync on some unrelated link must not stall the handoff.
	for id := range s.promoted {
		if _, ok := s.pendingResync[id]; ok {
			return
		}
	}
	var failed []string
	for id, link := range s.peerLinks {
		if link.failover {
			failed = append(failed, id)
		}
	}
	if len(failed) == 0 {
		s.promoted = make(map[string]struct{})
		return
	}
	sort.Strings(failed)
	targets := make([]string, 0, len(s.promoted))
	for id := range s.promoted {
		if link := s.peerLinks[id]; link != nil && link.pc != nil && link.active {
			targets = append(targets, id)
		}
	}
	sort.Strings(targets)
	for _, id := range failed {
		link := s.peerLinks[id]
		var orphans []*event.Raw
		if s.store != nil {
			_, err := s.store.Replay(spoolKey(id), func(ev *event.Raw) bool {
				orphans = append(orphans, ev)
				return true
			})
			if err != nil {
				s.log.Warn("failover spool drain failed", "peer", id, "err", err)
			}
		}
		link.failover = false
		s.fanUpdates(s.fed.Replace(peering.LinkID(id), nil))
		s.fed.SetActive(peering.LinkID(id), false)
		link.active, link.synced = false, false
		var unmatched []*event.Raw
		rerouted := uint64(0)
		for _, ev := range orphans {
			routed := false
			for _, tid := range targets {
				if s.fed.MatchLink(ev, peering.LinkID(tid)) {
					s.forwardToPeer(s.peerLinks[tid], []*event.Raw{ev})
					routed = true
				}
			}
			if routed {
				rerouted++
			} else {
				unmatched = append(unmatched, ev)
			}
		}
		s.reroutes += rerouted
		if len(unmatched) > 0 && !s.storeBatchFor(spoolKey(id), unmatched) {
			link.dropped += uint64(len(unmatched))
		}
		s.log.Info("failover complete", "peer", id,
			"rerouted", rerouted, "respooled", len(unmatched))
	}
	s.promoted = make(map[string]struct{})
}

// TopologyStats is a point-in-time snapshot of the control plane and the
// elected topology.
type TopologyStats struct {
	// Self is this broker's ID; Brokers the number of brokers in the
	// link-state database; Edges the agreed undirected edge count.
	Self    string
	Brokers int
	Edges   int
	// ActivePeers are the links the election selected to carry traffic;
	// StandbyPeers the connected links held as failover paths.
	ActivePeers  []string
	StandbyPeers []string
	// PendingResync counts promoted links whose SubSet exchange is still
	// in flight; Failovers completed or in-progress dead-link handoffs;
	// Reroutes events re-routed from dead links' spools onto promoted
	// paths.
	PendingResync int
	Failovers     uint64
	Reroutes      uint64
	// Resyncing names the links PendingResync counts; Promoted the links
	// the in-progress failover activated — the two sets a stuck failover
	// is stuck on.
	Resyncing []string
	Promoted  []string
	// Reconciles counts control-plane passes that changed the dial-worker
	// set; DeadLinkCloses connections closed by the heartbeat monitor.
	Reconciles     uint64
	DeadLinkCloses uint64
	// IntendedPeers is the runtime-mutable set of addresses this broker
	// keeps dialed.
	IntendedPeers []string
}

// TopologyStats snapshots the control plane via a round-trip through the
// core goroutine.
func (s *Server) TopologyStats() TopologyStats {
	st := TopologyStats{
		Self:           s.cfg.ID,
		Reconciles:     s.reconciles.Load(),
		DeadLinkCloses: s.deadLinks.Load(),
		IntendedPeers:  s.IntendedPeers(),
	}
	s.coreQuery(func() {
		st.Brokers = s.topo.Brokers()
		st.Edges = len(s.topo.Edges())
		st.PendingResync = len(s.pendingResync)
		st.Failovers = s.failovers
		st.Reroutes = s.reroutes
		for id, link := range s.peerLinks {
			switch {
			case link.active:
				st.ActivePeers = append(st.ActivePeers, id)
			case link.pc != nil:
				st.StandbyPeers = append(st.StandbyPeers, id)
			}
		}
		for id := range s.pendingResync {
			st.Resyncing = append(st.Resyncing, id)
		}
		for id := range s.promoted {
			st.Promoted = append(st.Promoted, id)
		}
		sort.Strings(st.ActivePeers)
		sort.Strings(st.StandbyPeers)
		sort.Strings(st.Resyncing)
		sort.Strings(st.Promoted)
	})
	return st
}
