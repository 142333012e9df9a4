package core

import (
	"fmt"
	"sync"
	"time"

	"hal/internal/amnet"
)

// The cross-process control plane of a machine spanning several OS
// processes (Config.Dist).  Kernel packets travel the transport's packet
// lane, which delivers them exactly once and in order on its own; this
// file is the out-of-band lane: distributed termination detection,
// result collection, and the shutdown handshake.
//
// Termination uses Mattern's four-counter method.  Each process keeps two
// cumulative counters per program — units created and units consumed
// (program.go) — and the leader runs probe waves: broadcast dcProbe,
// collect a dcReport from every worker, fold in its own counters, and
// compare against the previous wave.  A program is finished when two
// consecutive, fully separated waves report identical totals with
// created == consumed > 0: the second wave proves no unit was in flight
// while the first was taken.  Each process reads consumed BEFORE created,
// so a unit retiring mid-snapshot skews the sums toward "not yet done",
// never toward a false finish.
//
// Wall-clock use in this file is sanctioned: probe pacing, the stall
// watchdog, and the shutdown handshake all must keep ticking precisely
// when virtual time does not (a wedged machine makes no VT progress to
// observe), mirroring Machine.monitor.

// Control-message kinds.  These ride Transport.SendControl and must stay
// below the transport's own handshake range (0xF0, sock/transport.go).
const (
	dcProbe    uint8 = 1 + iota // leader -> workers: report your counters
	dcReport                    // worker -> leader: counters + boxed results
	dcDone                      // leader -> workers: program terminated
	dcShutdown                  // leader -> workers: machine is going down
	dcBye                       // worker -> leader: shutdown acknowledged
)

// probeMsg opens one counter wave.
type probeMsg struct {
	Wave uint64
}

// progCountWire is one program's cumulative counters in one process.
type progCountWire struct {
	ID       uint64
	Created  int64
	Consumed int64
}

// resultWire carries a program result (ctx.Exit on a worker) to the
// leader.  V is the gob-encoded value; Force marks ExitNow.
type resultWire struct {
	Prog  uint64
	V     []byte
	Force bool
}

// reportMsg answers a probe.
type reportMsg struct {
	Wave    uint64
	Progs   []progCountWire
	Results []resultWire
}

// doneMsg announces (and acknowledges the result of) a finished program.
type doneMsg struct {
	Prog uint64
}

// shutMsg tells workers the machine is shutting down.
type shutMsg struct {
	Stalled bool
	Msg     string
}

// distState is one process's half of the control plane.
type distState struct {
	m      *Machine
	t      amnet.Transport
	leader bool
	procs  int

	mu        sync.Mutex
	reports   map[int]reportMsg     // leader: freshest report per worker
	box       map[uint64]resultWire // worker: results the leader hasn't acked
	byes      map[int]bool          // leader: shutdown acknowledgments
	probeSeen time.Time             // worker: last probe arrival
	shutErr   error                 // worker: what the leader reported

	allByes   chan struct{} // leader: closed once every worker said bye
	shutOnce  sync.Once
	shutdownc chan struct{} // worker: closed on dcShutdown (DistWait)
}

func newDistState(m *Machine, d *DistConfig) *distState {
	return &distState{
		m:         m,
		t:         d.Transport,
		leader:    d.Leader,
		procs:     d.Transport.Procs(),
		reports:   make(map[int]reportMsg),
		box:       make(map[uint64]resultWire),
		byes:      make(map[int]bool),
		allByes:   make(chan struct{}),
		shutdownc: make(chan struct{}),
	}
}

// run replaces Machine.monitor on a multi-process machine: the per-process
// live gauge cannot see cross-process work, so quiescence and stalls are
// the leader's call, and workers watch for the leader going silent.
func (d *distState) run(stop, done <-chan struct{}) {
	if d.leader {
		d.leaderLoop(stop, done)
		return
	}
	d.workerLoop(stop, done)
}

// isDone reports whether the program already finished.
func (p *Program) isDone() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// localCounts snapshots this process's cumulative counters, reading each
// program's consumed counter BEFORE its created counter: a unit retiring
// between the two reads inflates created relative to consumed, which can
// only delay the all-equal verdict, never fake it.
func (d *distState) localCounts() []progCountWire {
	tab := d.m.progTab.Load()
	if tab == nil {
		return nil
	}
	out := make([]progCountWire, 0, len(*tab))
	for _, p := range *tab {
		consumed := p.consumed.Load()
		created := p.created.Load()
		out = append(out, progCountWire{ID: p.id, Created: created, Consumed: consumed})
	}
	return out
}

// --- leader --------------------------------------------------------------

// leaderLoop drives probe waves until the machine stops.
//
//halvet:allowwallclock termination probing and stall detection pace on the host clock — a quiescent or wedged machine makes no VT progress to observe
func (d *distState) leaderLoop(stop, done <-chan struct{}) {
	prev := make(map[uint64][2]int64) // prog id -> {created, consumed}
	lastChange := time.Now()
	for wave := uint64(1); ; wave++ {
		reports, ok := d.collectWave(wave, stop, done)
		if !ok {
			return
		}

		// Results first: ctx.Exit boxes the value before the consumed tick
		// its report carries, so by the time counters balance the result
		// already rode in (this wave or an earlier one).
		for _, r := range reports {
			for _, rw := range r.Results {
				d.applyResult(rw)
			}
		}

		cur := make(map[uint64][2]int64, len(prev))
		for _, pc := range d.localCounts() {
			cur[pc.ID] = [2]int64{pc.Created, pc.Consumed}
		}
		for _, r := range reports {
			for _, pc := range r.Progs {
				t := cur[pc.ID]
				t[0] += pc.Created
				t[1] += pc.Consumed
				cur[pc.ID] = t
			}
		}

		changed, anyLive, outstanding := false, false, int64(0)
		if tab := d.m.progTab.Load(); tab != nil {
			for _, prog := range *tab {
				t := cur[prog.id]
				p, had := prev[prog.id]
				if !had || p != t {
					changed = true
				}
				if prog.isDone() {
					continue
				}
				if had && p == t && t[0] == t[1] && t[0] > 0 {
					// Two separated waves, identical balanced counters:
					// the program is globally quiescent.
					prog.finishProg()
					d.t.SendControl(-1, dcDone, doneMsg{Prog: prog.id}.encode())
					changed = true
					continue
				}
				anyLive = true
				outstanding += t[0] - t[1]
			}
		}
		prev = cur
		if changed {
			lastChange = time.Now()
		}
		if st := d.m.cfg.StallTimeout; st > 0 && anyLive && time.Since(lastChange) > st {
			d.stall(fmt.Sprintf("cross-process counters stable for %v with %d unit(s) outstanding", st, outstanding))
			return
		}

		select {
		case <-stop:
			return
		case <-done:
			return
		case <-time.After(reportEvery):
		}
	}
}

// stall ends the run as stalled: the flight record is written while the
// kernels and links still show why (a peer that never came back reads
// there as a down link with frames unacknowledged), the workers are
// told, and the machine stops with ErrStalled.
func (d *distState) stall(detail string) {
	if d.m.cfg.FlightPath != "" {
		d.m.writeFlightFile()
	}
	d.broadcastShutdown(true, detail)
	d.m.finish(fmt.Errorf("%w: %s", ErrStalled, detail))
}

// collectWave broadcasts a probe and blocks until every worker has
// answered for this wave.  A probe the transport accepted reaches every
// worker exactly once, however often a link is cut; one it refused (a
// backlog behind a dead peer) is sent again on the next tick, and workers
// answer every copy (reports are idempotent snapshots).  A worker silent
// for twice the stall timeout is a stall like any other.
//
//halvet:allowwallclock the poll tick and the worker-silence deadline pace on the host clock — a silent worker leaves no VT signal
func (d *distState) collectWave(wave uint64, stop, done <-chan struct{}) ([]reportMsg, bool) {
	probe := probeMsg{Wave: wave}.encode()
	sent := false
	var deadline time.Time
	if st := d.m.cfg.StallTimeout; st > 0 {
		deadline = time.Now().Add(2 * st)
	}
	for {
		if !sent {
			sent = d.t.SendControl(-1, dcProbe, probe) == nil
		}
		got := make([]reportMsg, 0, d.procs-1)
		d.mu.Lock()
		for p := 1; p < d.procs; p++ {
			if r, ok := d.reports[p]; ok && r.Wave == wave {
				got = append(got, r)
			}
		}
		d.mu.Unlock()
		if len(got) == d.procs-1 {
			return got, true
		}
		select {
		case <-stop:
			return nil, false
		case <-done:
			return nil, false
		case <-time.After(reportEvery / 4):
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			d.stall(fmt.Sprintf("a worker process stopped answering termination probes (wave %d)", wave))
			return nil, false
		}
	}
}

// applyResult installs a worker's boxed result on the leader.
func (d *distState) applyResult(rw resultWire) {
	prog := d.m.progByID(rw.Prog)
	if prog == nil || prog.isDone() {
		return // a late copy: the dcDone that empties the box is on its way
	}
	v, err := decodeValue(rw.V)
	if err != nil {
		panic(fmt.Sprintf("core: result of program %d does not decode: %v (gob.Register the result type in every process)", rw.Prog, err))
	}
	prog.setResult(v)
	if rw.Force {
		// ExitNow: complete immediately, without waiting for quiescence.
		prog.finishProg()
		d.t.SendControl(-1, dcDone, doneMsg{Prog: rw.Prog}.encode())
	}
}

// broadcastShutdown tells every worker the machine is going down.  An
// accepted broadcast reaches every live worker exactly once; an error
// means some link did not take it.
func (d *distState) broadcastShutdown(stalled bool, msg string) error {
	return d.t.SendControl(-1, dcShutdown, shutMsg{Stalled: stalled, Msg: msg}.encode())
}

// awaitByes blocks until every worker acknowledged the shutdown, so the
// leader does not close its connections under an unread shutdown.  Only a
// worker that already died leaves the bound to end the wait.
//
//halvet:allowwallclock the shutdown handshake is host-side teardown, after the simulation stopped
func (d *distState) awaitByes() {
	select {
	case <-d.allByes:
	case <-time.After(5 * time.Second):
	}
}

// --- worker --------------------------------------------------------------

// workerLoop watches for the leader's probes going silent (leader process
// death would otherwise leave workers running forever).
//
//halvet:allowwallclock the probe-silence watchdog needs a clock that ticks while the local machine is idle
func (d *distState) workerLoop(stop, done <-chan struct{}) {
	st := d.m.cfg.StallTimeout
	if st <= 0 {
		// Watchdog disabled, like the local stall monitor.
		select {
		case <-stop:
		case <-done:
		}
		return
	}
	d.mu.Lock()
	d.probeSeen = time.Now()
	d.mu.Unlock()
	// A live leader can stay silent toward this worker while it waits out
	// another worker, for up to its own 2*st deadline (collectWave), after
	// which it shuts the machine down; the watchdog waits longer, so a
	// dead peer is the leader's diagnosis, not a false "leader died" here.
	silence := 3 * st
	tick := time.NewTicker(st)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-done:
			return
		case <-d.shutdownc:
			return
		case <-tick.C:
		}
		d.mu.Lock()
		last := d.probeSeen
		d.mu.Unlock()
		if time.Since(last) > silence {
			d.m.finish(fmt.Errorf("core: leader termination probes silent for %v; assuming the leader died", silence))
			return
		}
	}
}

// boxResult records a worker-side ctx.Exit value for the leader.  The box
// rides every probe reply until a dcDone acknowledges it, so a reply the
// transport refused cannot strand a result.
func (d *distState) boxResult(prog *Program, v any, force bool) {
	b, err := encodeValue(v)
	if err != nil {
		panic(fmt.Sprintf("core: program result %T is not wire-encodable: %v (gob.Register it in every process)", v, err))
	}
	d.mu.Lock()
	if old, ok := d.box[prog.id]; ok && old.Force {
		force = true // an earlier ExitNow wins the completion mode
	}
	d.box[prog.id] = resultWire{Prog: prog.id, V: b, Force: force}
	d.mu.Unlock()
}

// --- control receiver ----------------------------------------------------

// onCtl is the Transport.OnControl receiver, called on transport reader
// goroutines (never node kernels, so the blocking SendControl replies are
// legal here).
//
//halvet:allowwallclock stamps probe arrival for the worker's leader-silence watchdog
func (d *distState) onCtl(peer int, kind uint8, body []byte) {
	switch kind {
	case dcProbe:
		pm, err := decodeProbe(body)
		if err != nil {
			return
		}
		d.mu.Lock()
		d.probeSeen = time.Now()
		results := make([]resultWire, 0, len(d.box))
		for _, rw := range d.box {
			results = append(results, rw)
		}
		d.mu.Unlock()
		rep := reportMsg{Wave: pm.Wave, Progs: d.localCounts(), Results: results}
		d.t.SendControl(peer, dcReport, rep.encode())
	case dcReport:
		rm, err := decodeReport(body)
		if err != nil {
			return
		}
		d.mu.Lock()
		d.reports[peer] = rm // the link is FIFO: the newest wave arrives last
		d.mu.Unlock()
	case dcDone:
		dm, err := decodeDone(body)
		if err != nil || dm.Prog > d.m.progSeq.Load()+maxProgAhead {
			return
		}
		d.mu.Lock()
		delete(d.box, dm.Prog)
		d.mu.Unlock()
		d.m.progForWire(dm.Prog).finishProg()
	case dcShutdown:
		sm, err := decodeShut(body)
		if err != nil {
			return
		}
		// Acknowledge every copy, and before DistWait can return: the
		// worker closes its transport right after, and Close writes the
		// control messages queued by then.
		d.t.SendControl(peer, dcBye, nil)
		d.shutOnce.Do(func() {
			var err error
			if sm.Stalled {
				err = fmt.Errorf("%w: %s", ErrStalled, sm.Msg)
			} else if sm.Msg != "" {
				err = fmt.Errorf("core: leader shut the machine down: %s", sm.Msg)
			}
			d.mu.Lock()
			d.shutErr = err
			d.mu.Unlock()
			close(d.shutdownc)
		})
	case dcBye:
		d.mu.Lock()
		if !d.byes[peer] {
			if d.byes[peer] = true; len(d.byes) == d.procs-1 {
				close(d.allByes)
			}
		}
		d.mu.Unlock()
	}
}

// --- control-body codec ---------------------------------------------------
//
// Control bodies use payloadwire.go's little-endian helpers: words, a
// byte per bool, u32-counted lists.  Decode errors are returned, never
// panicked on: a corrupt frame from a half-dead peer must not kill the
// process.

func (pm probeMsg) encode() []byte { return le.AppendUint64(nil, pm.Wave) }

func decodeProbe(b []byte) (probeMsg, error) {
	r := wireReader{b: b}
	pm := probeMsg{Wave: r.u64()}
	return pm, r.done()
}

// progCountBytes and resultMinBytes are the encoded size of a
// progCountWire and the least of a resultWire.
const (
	progCountBytes = 24
	resultMinBytes = 8 + 1 + 4
)

func (rm reportMsg) encode() []byte {
	b := le.AppendUint64(nil, rm.Wave)
	b = appendListLen(b, rm.Progs)
	for _, pc := range rm.Progs {
		b = le.AppendUint64(b, pc.ID)
		b = le.AppendUint64(b, uint64(pc.Created))
		b = le.AppendUint64(b, uint64(pc.Consumed))
	}
	b = appendListLen(b, rm.Results)
	for _, rw := range rm.Results {
		b = le.AppendUint64(b, rw.Prog)
		b = appendBool(b, rw.Force)
		b = appendBytes(b, rw.V)
	}
	return b
}

func decodeReport(b []byte) (reportMsg, error) {
	r := wireReader{b: b}
	rm := reportMsg{Wave: r.u64()}
	if n, _ := r.listLen(progCountBytes); n > 0 {
		rm.Progs = make([]progCountWire, n)
		for i := range rm.Progs {
			rm.Progs[i] = progCountWire{ID: r.u64(), Created: int64(r.u64()), Consumed: int64(r.u64())}
		}
	}
	if n, _ := r.listLen(resultMinBytes); n > 0 {
		rm.Results = make([]resultWire, n)
		for i := range rm.Results {
			rw := resultWire{Prog: r.u64(), Force: r.bool()}
			// The report outlives the transport's read buffer.
			rw.V = append([]byte(nil), r.bytes()...)
			rm.Results[i] = rw
		}
	}
	return rm, r.done()
}

func (dm doneMsg) encode() []byte { return le.AppendUint64(nil, dm.Prog) }

func decodeDone(b []byte) (doneMsg, error) {
	r := wireReader{b: b}
	dm := doneMsg{Prog: r.u64()}
	return dm, r.done()
}

func (sm shutMsg) encode() []byte { return appendBytes(appendBool(nil, sm.Stalled), sm.Msg) }

func decodeShut(b []byte) (shutMsg, error) {
	r := wireReader{b: b}
	sm := shutMsg{Stalled: r.bool(), Msg: string(r.bytes())}
	return sm, r.done()
}
