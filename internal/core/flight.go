package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Flight recorder: when a run hangs (or a test fails), dump the newest
// trace events of every node plus a stats snapshot, so the red X comes
// with evidence.  The stats side reads the race-safe mirrors (StatsNow);
// the event rings are read in place, which mid-run is a diagnostic-only
// racy read with the same standing as the stall monitor's dumpLocked —
// the rings are appended by node goroutines that, on the stall path, are
// all parked.  Tests that want a race-clean record call this after Run
// returns.

// WriteFlightRecord writes a human-readable flight record to w: machine
// gauges, the aggregate stats snapshot, one line per link to another
// process, and the newest perNode events per node (perNode <= 0 selects Config.FlightEvents).  Requires
// Config.TraceBuffer > 0 for the event section to be non-empty.
func (m *Machine) WriteFlightRecord(w io.Writer, perNode int) error {
	if perNode <= 0 {
		perNode = m.cfg.FlightEvents
	}
	bw := bufio.NewWriter(w)
	st := m.StatsNow()
	fmt.Fprintf(bw, "=== HAL flight record ===\n")
	fmt.Fprintf(bw, "nodes=%d live=%d parked=%d beat=%d running=%v\n",
		len(m.nodes), m.live.sum(), m.parked.sum(), m.beat.sum(), m.running.Load())
	bw.WriteString(st.String())
	if m.dist != nil {
		for _, l := range m.dist.t.LinkStates() {
			state := "down"
			if l.Up {
				state = "up"
			}
			fmt.Fprintf(bw, "link to process %d: %s gen=%d unacked=%d sent-seq=%d acked-seq=%d recv-seq=%d\n",
				l.Peer, state, l.Gen, l.Unacked, l.SentSeq, l.AckedSeq, l.RecvSeq)
		}
	}
	for i, n := range m.nodes {
		evs := n.events.newest(perNode)
		s := &st.PerNode[i]
		fmt.Fprintf(bw, "--- node %d: delivered=%d sent=%d recv=%d idleyields=%d idleparks=%d events=%d (showing newest %d of %d recorded)\n",
			i, s.Delivered, s.Net.Sent, s.Net.Received, s.IdleYields, s.IdleParks, len(evs), len(evs), n.events.total)
		for _, e := range evs {
			fmt.Fprintln(bw, e)
		}
	}
	return bw.Flush()
}

// writeFlightFile dumps the flight record to cfg.FlightPath; called from
// the stall monitor, best effort.
func (m *Machine) writeFlightFile() {
	f, err := os.Create(m.cfg.FlightPath)
	if err != nil {
		return
	}
	m.WriteFlightRecord(f, m.cfg.FlightEvents)
	f.Close()
}
