package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// A wave starts when some process's share of a live program's work has
// changed since it last reported, and costs a round trip.  Each process
// keeps, per program, the net created − consumed it last reported
// (Program.reported): a worker's latest probe answer or push, the
// leader's own fold in its last wave.  A node looks at the programs it
// published work for at its idle edge and its run-loop epoch
// (checkShares); if one's net moved, or a worker result was boxed since
// the last report, it wakes its process's dist loop (wantWave).  A
// worker's loop answers with an unsolicited report (dcPush) labelled with
// the last probe it saw; the leader starts a wave on its own wake or on
// any push, one wave in flight at a time, and a wave that finds a live
// program balanced but not yet confirmed is followed at once by the
// confirming wave.  The leader wakes the moment the last report of a wave
// lands (onCtl signals reportc).  Wave k+1 still opens only after every
// report of wave k arrived, which is what keeps the two separated.  No
// timer paces a wave except a heartbeat every StallTimeout/2, which feeds
// the workers' silence watchdogs and the leader's stall verdict.
// DESIGN.md "Cross-process termination and results" argues that the
// trigger is complete and why a report never replaces a newer-labelled
// one.
//
// Reports and the leader's fold carry live programs only: a worker learns
// a program is done from the leader's dcDone alone, which drops it from
// the worker's table (finishProg), so a done program's counters can no
// longer matter to anyone.  Every program that finishes on the leader —
// judged by a wave, forced by a worker's ExitNow, or by ExitNow on the
// leader itself — is queued for the leader's loop, which sends its
// dcDone.
//
// A wave allocates nothing in steady state: bodies are encoded into
// buffers kept here (the transport copies them), received reports are
// decoded into reused slots, and the leader's wave state is reused wave
// after wave.
//
// Wall-clock use in this file is sanctioned: the heartbeat wave, the
// refused-probe resend, the stall watchdogs, and the shutdown handshake
// all must keep ticking precisely when virtual time does not (a wedged
// machine makes no VT progress to observe), mirroring Machine.monitor.

// Control-message kinds.  These ride Transport.SendControl and must stay
// below the transport's own handshake range (0xF0, sock/transport.go).
const (
	dcProbe    uint8 = 1 + iota // leader -> workers: report your counters
	dcReport                    // worker -> leader: counters + boxed results, answering a probe
	dcPush                      // worker -> leader: the same, unasked: its share changed
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

// reportMsg answers a probe, or pushes a change.  Wave is the probe it
// answers, or for a push the last probe the worker saw.
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
	reports   []reportMsg           // leader: freshest report per worker, by process index
	spare     reportMsg             // leader: decode target, swapped with the report it replaces
	box       map[uint64]resultWire // worker: results the leader hasn't acked
	byes      map[int]bool          // leader: shutdown acknowledgments
	probeSeen time.Time             // worker: last probe arrival
	lastProbe uint64                // worker: the newest probe wave seen; labels pushes
	pushOut   bool                  // worker: a push went out and no probe has come since
	shutErr   error                 // worker: what the leader reported
	counts    []progCountWire       // worker: the last report's counters
	results   []resultWire          // worker: the last report's results
	body      []byte                // worker: the last report's encoding
	probe     []byte                // leader: the last probe's encoding (leader loop only)

	// doneQ holds the programs finished on the leader whose dcDone the
	// leader loop has not sent yet.  Its own lock: finishProg queues here
	// while a wave's fold holds mu.
	doneMu sync.Mutex
	doneQ  []uint64

	want    atomic.Bool   // a share changed (or, leader: a push came): wave or push wanted
	boxNew  atomic.Bool   // worker: a result was boxed since the last report
	kick    chan struct{} // one slot: wakes the dist loop to look at want and doneQ
	reportc chan struct{} // leader: one slot, signalled by every report stored
	waves   atomic.Uint64 // leader: waves completed

	allByes   chan struct{} // leader: closed once every worker said bye
	shutOnce  sync.Once
	shutdownc chan struct{} // worker: closed on dcShutdown (DistWait)
}

func newDistState(m *Machine, d *DistConfig) *distState {
	ds := &distState{
		m:         m,
		t:         d.Transport,
		leader:    d.Leader,
		procs:     d.Transport.Procs(),
		box:       make(map[uint64]resultWire),
		byes:      make(map[int]bool),
		kick:      make(chan struct{}, 1),
		reportc:   make(chan struct{}, 1),
		allByes:   make(chan struct{}),
		shutdownc: make(chan struct{}),
	}
	if ds.leader {
		ds.reports = make([]reportMsg, ds.procs)
	}
	return ds
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

// wantWave asks this process's dist loop for a wave (leader) or a push
// (worker).  Node goroutines call it, so it never blocks.
func (d *distState) wantWave() {
	d.want.Store(true)
	notify(d.kick)
}

// notify signals a one-slot wake channel without blocking.
func notify(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default: // a wake is already pending
	}
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

// counts reads the program's cumulative counters in this process,
// consumed BEFORE created: a unit retiring between the two reads inflates
// created relative to consumed, which can only delay the all-equal
// verdict, never fake it.
func (p *Program) counts() [2]int64 {
	consumed := p.consumed.Load()
	return [2]int64{p.created.Load(), consumed}
}

// markReported records c, just read, as this process's report of p's
// counters, and says whether p's net has moved since c was read.  A node
// that settled in between may have compared against the old record and
// found nothing to report, so the reporter must then ask again itself.
func (p *Program) markReported(c [2]int64) (moved bool) {
	net := c[0] - c[1]
	p.reported.Store(net)
	now := p.counts()
	return now[0]-now[1] != net
}

// shareMoved reports whether this process's net of p differs from what
// it last reported, for a program still running.
func (p *Program) shareMoved() bool {
	c := p.counts()
	return c[0]-c[1] != p.reported.Load() && !p.isDone()
}

// reportCounts appends this process's counters of the programs still
// running to out and records each as reported; moved says whether one's
// net moved meanwhile (markReported).
func (m *Machine) reportCounts(out []progCountWire) (_ []progCountWire, moved bool) {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	for _, p := range m.progs {
		c := p.counts()
		moved = p.markReported(c) || moved
		out = append(out, progCountWire{ID: p.id, Created: c[0], Consumed: c[1]})
	}
	return out, moved
}

// --- leader --------------------------------------------------------------

// waveState is the leader loop's state from wave to wave, reused so that
// a wave allocates nothing.
type waveState struct {
	prev, cur map[uint64][2]int64 // prog id -> {created, consumed}, summed over processes
	progs     []*Program          // the programs running here, walked once a wave
	finished  []*Program
	done      []uint64 // ids taken from doneQ
	body      []byte   // dcDone encoding
}

// leaderLoop starts a wave whenever a share changed (want) and on the
// heartbeat, and sends the dcDone of every program finished here.  A wave
// that leaves a live program balanced but unconfirmed is followed at once
// by the confirming wave.  With StallTimeout < 0 there is no heartbeat,
// and the loop arms no timer unless a probe is refused.
//
//halvet:allowwallclock the heartbeat wave and stall detection pace on the host clock — a quiescent or wedged machine makes no VT progress to observe
func (d *distState) leaderLoop(stop, done <-chan struct{}) {
	ws := &waveState{prev: make(map[uint64][2]int64), cur: make(map[uint64][2]int64)}
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	st := d.m.cfg.StallTimeout
	var lastChange, nextBeat time.Time
	if st > 0 {
		lastChange = time.Now()
		nextBeat = lastChange.Add(st / 2)
	}
	for wave := uint64(1); ; {
		var beat <-chan time.Time
		if st > 0 {
			tm.Reset(time.Until(nextBeat))
			beat = tm.C
		}
		heartbeat := false
		select {
		case <-stop:
			return
		case <-done:
			return
		case <-d.kick:
		case <-beat:
			heartbeat = true
		}
		tm.Stop()
		d.sendDone(ws)
		if !d.want.Swap(false) && !heartbeat {
			continue
		}
		for {
			v, ok := d.runWave(ws, wave, stop, done, tm)
			wave++
			if !ok {
				return
			}
			d.sendDone(ws)
			if st > 0 {
				now := time.Now()
				nextBeat = now.Add(st / 2)
				if v.changed {
					lastChange = now
				}
				if v.live && now.Sub(lastChange) > st {
					d.stall(fmt.Sprintf("cross-process counters stable for %v with %d unit(s) outstanding", st, v.outstanding))
					return
				}
			}
			if !v.confirm {
				break
			}
		}
	}
}

// runWave runs wave number wave: probe, collect every worker's report,
// fold them with this process's counters, and judge.  Programs the wave
// finishes queue their dcDone (finishProg).
func (d *distState) runWave(ws *waveState, wave uint64, stop, done <-chan struct{}, tm *time.Timer) (waveVerdict, bool) {
	if !d.collectWave(wave, stop, done, tm) {
		return waveVerdict{}, false
	}
	clear(ws.cur)
	ws.progs = d.m.programs(ws.progs[:0])
	moved := false
	for _, p := range ws.progs {
		c := p.counts()
		ws.cur[p.id] = c
		moved = p.markReported(c) || moved
	}
	d.mu.Lock()
	for _, r := range d.reports[1:] {
		// Results first: ctx.Exit boxes the value before the consumed
		// tick its report carries, so by the time counters balance the
		// result already rode in (this wave or an earlier one).
		for _, rw := range r.Results {
			d.applyResult(rw)
		}
		for _, pc := range r.Progs {
			t := ws.cur[pc.ID]
			t[0] += pc.Created
			t[1] += pc.Consumed
			ws.cur[pc.ID] = t
		}
	}
	d.mu.Unlock()
	if moved {
		d.wantWave()
	}
	v := judge(ws.progs, ws.prev, ws.cur, ws.finished)
	ws.finished = v.finished
	for _, prog := range v.finished {
		prog.finishProg()
	}
	clear(ws.finished) // do not keep finished programs alive
	ws.prev, ws.cur = ws.cur, ws.prev
	d.waves.Add(1)
	return v, true
}

// queueDone hands a program finished on the leader to the leader loop,
// which sends its dcDone (finishProg; never blocks on the network).
func (d *distState) queueDone(id uint64) {
	d.doneMu.Lock()
	d.doneQ = append(d.doneQ, id)
	d.doneMu.Unlock()
	notify(d.kick)
}

// sendDone broadcasts dcDone for the programs queued since the last call.
func (d *distState) sendDone(ws *waveState) {
	d.doneMu.Lock()
	ws.done = append(ws.done[:0], d.doneQ...)
	d.doneQ = d.doneQ[:0]
	d.doneMu.Unlock()
	for _, id := range ws.done {
		ws.body = doneMsg{Prog: id}.appendTo(ws.body[:0])
		d.t.SendControl(-1, dcDone, ws.body)
	}
}

// waveVerdict is what one wave says about the programs still running.
type waveVerdict struct {
	finished    []*Program // two separated waves agree, and balance
	confirm     bool       // a program balances, not yet confirmed: wave again now
	changed     bool       // a program's totals moved, or it finished
	live        bool       // a program is still running
	outstanding int64      // units created and not consumed, over those
}

// judge compares one wave's totals (cur: program id -> {created,
// consumed}, summed over every process) with the previous wave's for each
// program in progs not yet done.  A program is finished when both waves
// hold the same totals and created == consumed > 0.  The finished
// programs are appended to finished[:0].
func judge(progs []*Program, prev, cur map[uint64][2]int64, finished []*Program) (v waveVerdict) {
	v.finished = finished[:0]
	for _, prog := range progs {
		if prog.isDone() {
			continue
		}
		t := cur[prog.id]
		p, had := prev[prog.id]
		balanced := t[0] == t[1] && t[0] > 0
		if had && p == t && balanced {
			v.finished = append(v.finished, prog)
			v.changed = true
			continue
		}
		if !had || p != t {
			v.changed = true
			v.confirm = v.confirm || balanced
		}
		v.live = true
		v.outstanding += t[0] - t[1]
	}
	return v
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

// collectWave broadcasts a probe and blocks until every worker's stored
// report is labelled with this wave, waking on each report.  A probe the
// transport accepted reaches every worker exactly once, however often a
// link is cut; one it refused (a backlog behind a dead peer) is sent again
// after probeResend, and workers answer every copy (reports are
// idempotent snapshots).  A worker silent for twice the stall timeout is
// a stall like any other.  tm is the caller's timer, stopped.
//
//halvet:allowwallclock the refused-probe resend and the worker-silence deadline pace on the host clock — a silent worker leaves no VT signal
func (d *distState) collectWave(wave uint64, stop, done <-chan struct{}, tm *time.Timer) bool {
	d.probe = probeMsg{Wave: wave}.appendTo(d.probe[:0])
	sent := false
	var deadline time.Time
	if st := d.m.cfg.StallTimeout; st > 0 {
		deadline = time.Now().Add(2 * st)
	}
	for {
		if !sent {
			sent = d.t.SendControl(-1, dcProbe, d.probe) == nil
		}
		if d.answered(wave) {
			return true
		}
		var tick <-chan time.Time
		switch {
		case !sent:
			tm.Reset(probeResend)
			tick = tm.C
		case !deadline.IsZero():
			tm.Reset(time.Until(deadline))
			tick = tm.C
		}
		select {
		case <-stop:
			tm.Stop()
			return false
		case <-done:
			tm.Stop()
			return false
		case <-d.reportc:
		case <-tick:
		}
		tm.Stop()
		if !deadline.IsZero() && time.Now().After(deadline) {
			d.stall(fmt.Sprintf("a worker process stopped answering termination probes (wave %d)", wave))
			return false
		}
	}
}

// answered reports whether every worker's stored report is of this wave.
func (d *distState) answered(wave uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.reports[1:] {
		if r.Wave != wave {
			return false
		}
	}
	return true
}

// storeReport decodes body into peer's report slot, unless it is labelled
// with an older wave than the report there: a report built before probe
// k+1 arrived but delivered after the answer to it must not replace that
// answer, or wave k+1 would wait for it forever.  d.mu is held.
func (d *distState) storeReport(peer int, body []byte) bool {
	if len(body) < 8 || le.Uint64(body) < d.reports[peer].Wave {
		return false
	}
	if decodeReport(body, &d.spare) != nil {
		return false
	}
	d.reports[peer], d.spare = d.spare, d.reports[peer]
	return true
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
	}
}

// broadcastShutdown tells every worker the machine is going down.  An
// accepted broadcast reaches every live worker exactly once; an error
// means some link did not take it.
func (d *distState) broadcastShutdown(stalled bool, msg string) error {
	return d.t.SendControl(-1, dcShutdown, shutMsg{Stalled: stalled, Msg: msg}.appendTo(nil))
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

// workerLoop pushes a report whenever this process's share changed, and
// watches for the leader's probes going silent (leader process death
// would otherwise leave workers running forever).
//
//halvet:allowwallclock the probe-silence watchdog needs a clock that ticks while the local machine is idle
func (d *distState) workerLoop(stop, done <-chan struct{}) {
	st := d.m.cfg.StallTimeout
	var tick <-chan time.Time
	if st > 0 { // else the watchdog is disabled, like the local stall monitor
		d.mu.Lock()
		d.probeSeen = time.Now()
		d.mu.Unlock()
		t := time.NewTicker(st)
		defer t.Stop()
		tick = t.C
	}
	// A live leader can stay silent toward this worker while it waits out
	// another worker, for up to its own 2*st deadline (collectWave), after
	// which it shuts the machine down; the watchdog waits longer, so a
	// dead peer is the leader's diagnosis, not a false "leader died" here.
	silence := 3 * st
	for {
		select {
		case <-stop:
			return
		case <-done:
			return
		case <-d.shutdownc:
			return
		case <-d.kick:
			if d.want.Swap(false) {
				d.push()
			}
			continue
		case <-tick:
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

// push sends the leader an unasked report.  One push per probe: the
// leader answers a push with a wave, and the answer to its probe carries
// whatever changed after the push.
func (d *distState) push() {
	d.mu.Lock()
	moved := false
	if !d.pushOut {
		d.pushOut = true
		moved = d.report(0, dcPush, d.lastProbe)
	}
	d.mu.Unlock()
	if moved {
		d.wantWave()
	}
}

// report sends peer this process's counters and boxed results, labelled
// wave, and makes them the baseline a node's share check compares
// against; moved says whether a program's net moved while it was read.
// Building and sending under d.mu keeps reports in build order on the
// wire.  d.mu is held.
func (d *distState) report(peer int, kind uint8, wave uint64) (moved bool) {
	d.boxNew.Store(false)
	d.results = d.results[:0]
	for _, rw := range d.box {
		d.results = append(d.results, rw)
	}
	d.counts, moved = d.m.reportCounts(d.counts[:0])
	d.body = reportMsg{Wave: wave, Progs: d.counts, Results: d.results}.appendTo(d.body[:0])
	d.t.SendControl(peer, kind, d.body)
	return moved
}

// boxResult records a worker-side ctx.Exit value for the leader.  The box
// rides every report until a dcDone acknowledges it, so a report the
// transport refused cannot strand a result; the node's next share check
// pushes it (checkShares).
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
	d.boxNew.Store(true)
	d.mu.Unlock()
}

// --- control receiver ----------------------------------------------------

// onCtl is the Transport.OnControl receiver, called on transport reader
// goroutines (never node kernels, so SendControl is legal here).  body is
// valid only during the call.
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
		d.lastProbe = max(d.lastProbe, pm.Wave)
		d.pushOut = false
		moved := d.report(peer, dcReport, pm.Wave)
		d.mu.Unlock()
		if moved {
			d.wantWave()
		}
	case dcReport, dcPush:
		if peer <= 0 || peer >= len(d.reports) {
			return // not the leader, or not a worker
		}
		d.mu.Lock()
		stored := d.storeReport(peer, body)
		d.mu.Unlock()
		if stored {
			notify(d.reportc)
		}
		if kind == dcPush {
			d.wantWave()
		}
	case dcDone:
		dm, err := decodeDone(body)
		if err != nil || dm.Prog > d.m.progSeq.Load()+maxProgAhead {
			return
		}
		d.mu.Lock()
		delete(d.box, dm.Prog)
		d.mu.Unlock()
		if prog := d.m.progForWire(dm.Prog); prog != nil { // nil: finished already
			prog.finishProg()
		}
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

func (pm probeMsg) appendTo(b []byte) []byte { return le.AppendUint64(b, pm.Wave) }

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

func (rm reportMsg) appendTo(b []byte) []byte {
	b = le.AppendUint64(b, rm.Wave)
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

// decodeReport decodes b into *rm, reusing its slices (a result's value
// bytes too: the report outlives b).  On error *rm holds garbage.
func decodeReport(b []byte, rm *reportMsg) error {
	r := wireReader{b: b}
	rm.Wave = r.u64()
	n, _ := r.listLen(progCountBytes)
	rm.Progs = slices.Grow(rm.Progs[:0], n)[:n]
	for i := range rm.Progs {
		rm.Progs[i] = progCountWire{ID: r.u64(), Created: int64(r.u64()), Consumed: int64(r.u64())}
	}
	n, _ = r.listLen(resultMinBytes)
	rm.Results = slices.Grow(rm.Results[:0], n)[:n]
	for i := range rm.Results {
		rw := &rm.Results[i]
		rw.Prog, rw.Force = r.u64(), r.bool()
		rw.V = append(rw.V[:0], r.bytes()...)
	}
	return r.done()
}

func (dm doneMsg) appendTo(b []byte) []byte { return le.AppendUint64(b, dm.Prog) }

func decodeDone(b []byte) (doneMsg, error) {
	r := wireReader{b: b}
	dm := doneMsg{Prog: r.u64()}
	return dm, r.done()
}

func (sm shutMsg) appendTo(b []byte) []byte { return appendBytes(appendBool(b, sm.Stalled), sm.Msg) }

func decodeShut(b []byte) (shutMsg, error) {
	r := wireReader{b: b}
	sm := shutMsg{Stalled: r.bool(), Msg: string(r.bytes())}
	return sm, r.done()
}
