package broker

import (
	"sort"
	"sync/atomic"

	"eventsys/internal/obs"
)

// ConnIO counts socket crossings: how many read and write calls reached
// the socket and how many frames they carried. Frames per call is what
// the buffered reader and the draining writer buy — near 1 on an idle or
// paced connection, tens to hundreds under backlog.
type ConnIO struct {
	Reads         uint64 `json:"reads"`
	FramesRead    uint64 `json:"framesRead"`
	Writes        uint64 `json:"writes"`
	FramesWritten uint64 `json:"framesWritten"`
}

func (a *ConnIO) add(b ConnIO) {
	a.Reads += b.Reads
	a.FramesRead += b.FramesRead
	a.Writes += b.Writes
	a.FramesWritten += b.FramesWritten
}

// ConnStats is one live connection's socket counters; Conn is the remote's
// identity ("?" before its Hello, "parent" for the upstream link).
type ConnStats struct {
	Conn string `json:"conn"`
	ConnIO
}

// connIO is ConnIO as the connection's reader and writer goroutines keep
// it: each field has one writer, snapshots read from anywhere.
type connIO struct {
	reads, framesRead, writes, framesWritten atomic.Uint64
}

func (c *connIO) snapshot() ConnIO {
	return ConnIO{
		Reads:         c.reads.Load(),
		FramesRead:    c.framesRead.Load(),
		Writes:        c.writes.Load(),
		FramesWritten: c.framesWritten.Load(),
	}
}

// forgetConn takes a closed connection — its reader and writer have
// exited — out of the live set and folds its counters into the retired
// totals. The parent link is never in the set; it stays visible through
// s.parent.
func (s *Server) forgetConn(pc *peerConn) {
	s.mu.Lock()
	if _, ok := s.conns[pc]; ok {
		delete(s.conns, pc)
		s.retiredIO.add(pc.io.snapshot())
	}
	s.mu.Unlock()
}

// name is how stats label the connection: the remote's identity, "?"
// before its Hello. Callers hold s.mu (see setIdentity).
func (pc *peerConn) name() string {
	if pc.id == "" {
		return "?"
	}
	return pc.id
}

// ConnStats snapshots the socket counters of every live connection,
// ordered by name. Like FlowStats it never touches the core goroutine.
func (s *Server) ConnStats() []ConnStats {
	out, _ := s.connCounters()
	return out
}

// connCounters returns the live connections' counters and the broker's
// totals, which include the connections already gone.
func (s *Server) connCounters() ([]ConnStats, ConnIO) {
	s.mu.Lock()
	total := s.retiredIO
	out := make([]ConnStats, 0, len(s.conns)+1)
	for pc := range s.conns {
		out = append(out, ConnStats{pc.name(), pc.io.snapshot()})
	}
	s.mu.Unlock()
	if s.parent != nil {
		out = append(out, ConnStats{"parent", s.parent.io.snapshot()})
	}
	for _, c := range out {
		total.add(c.ConnIO)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out, total
}

// collectConnIO exports the broker's socket totals; frames per call is
// one division on a dashboard.
func (s *Server) collectConnIO(w *obs.MetricWriter) {
	_, t := s.connCounters()
	l := []string{"node", s.cfg.ID}
	w.Counter("eventsys_conn_reads_total",
		"Read calls made on the broker's connections.", float64(t.Reads), l...)
	w.Counter("eventsys_conn_frames_read_total",
		"Frames decoded from the broker's connections.", float64(t.FramesRead), l...)
	w.Counter("eventsys_conn_writes_total",
		"Write calls made on the broker's connections.", float64(t.Writes), l...)
	w.Counter("eventsys_conn_frames_written_total",
		"Frames sent on the broker's connections.", float64(t.FramesWritten), l...)
}
