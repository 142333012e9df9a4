package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hal/internal/amnet"
)

// Multi-program execution (§ 3).
//
// "The runtime system is designed to concurrently execute multiple
// programs on the same partition ... The kernel does not discriminate
// between actors created by different programs.  Users are provided with
// a simple command interpreter which communicates with the front-end to
// load the executables."
//
// A Machine can therefore be started once and loaded with several
// programs, each of which completes independently: every unit of work
// (message, deferred creation, continuation, migration bundle) belongs
// to the program whose method or join produced it — actors belong to no
// program — and a program finishes when its own work count drains —
// quiescence per program — while the machine and the other programs keep
// running.  The front end injects program loads
// through its own network endpoint, as the partition manager did.

// Program is a handle to one loaded program.
type Program struct {
	id uint64
	m  *Machine
	// live is the program's exact count of undone work, as of every
	// node's last settle; the settle that takes it to zero completes the
	// program.
	live   atomic.Int64
	mu     sync.Mutex
	result any
	done   chan struct{}
	once   sync.Once

	// created/consumed are cumulative work counters maintained (by settle)
	// only on a multi-process machine: the per-process live gauge cannot
	// cross zero meaningfully when units are created in one process and
	// retired in another, so the leader detects global quiescence from
	// these monotone counters instead (Mattern's four-counter method,
	// dist.go).
	created  atomic.Int64
	consumed atomic.Int64
	// reported is the net created − consumed this process last reported
	// for the program (unreported before its first report); a node
	// compares against it to decide whether the leader needs a wave
	// (dist.go).
	reported atomic.Int64
}

// unreported is Program.reported before the program's first report.
const unreported = math.MinInt64

// finishProg marks the program complete (idempotent) and drops it from
// the table.  On a multi-process leader it also queues the program for
// the dist loop, which tells the workers (dcDone).
//
//halvet:allowblock Once.Do is bounded here: the winning call only deletes a table entry, closes a channel and appends to the dist loop's done queue, so a loser waits a few instructions, never on network progress.
func (p *Program) finishProg() {
	p.once.Do(func() {
		p.m.progMu.Lock()
		delete(p.m.progs, p.id)
		p.m.progMu.Unlock()
		close(p.done)
		if d := p.m.dist; d != nil && d.leader {
			d.queueDone(p.id)
		}
	})
}

// setResult records the value Wait returns (ctx.Exit).
func (p *Program) setResult(v any) {
	p.mu.Lock()
	p.result = v
	p.mu.Unlock()
}

// Wait blocks until the program quiesces (or the machine stops) and
// returns the program's result.
func (p *Program) Wait() (any, error) {
	select {
	case <-p.done:
	case <-p.m.stop:
		// The machine stopped underneath us (Shutdown or stall).
		p.m.mu.Lock()
		err := p.m.failed
		p.m.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("core: machine shut down with program %d still running", p.id)
		}
		select {
		case <-p.done:
			// Completed in the same instant; prefer the result.
		default:
			return nil, err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.result, nil
}

// incLiveAt accounts k units of work for prog (and for the machine-wide
// activity gauge the balancer and stall monitor use) straight into shared
// memory, on the given counter shard.  Only the front end's Launch
// accounts this way; a node goes through its ledger.
func (m *Machine) incLiveAt(shard int, prog *Program, k int64) {
	m.live.add(shard, k)
	prog.live.Add(k)
	if m.dist != nil {
		prog.created.Add(k)
	}
}

// ledger is the work one node created and retired for one program since
// it last settled, plus the tasks it ran.  Plain words confined to the
// node's goroutine: a local hop, which creates one unit and retires one,
// adds to them and touches no shared memory.  DESIGN.md "Work accounting"
// has the argument for why publishing late is safe.
type ledger struct {
	prog  *Program
	plus  int64 // units created
	minus int64 // units retired
	beat  int64 // tasks executed
	// settles counts the settles that had work to publish (tests bound it).
	settles int
}

// entry returns the ledger to account prog's work in.  A ledger holds one
// program's work, so an entry for another program settles it first.
func (n *node) entry(prog *Program) *ledger {
	if n.led.prog != prog {
		n.settle()
		n.led.prog = prog
	}
	return &n.led
}

// incLive accounts k units of work created for prog; retire accounts k
// units done; decLiveProg retires one.
func (n *node) incLive(prog *Program, k int64) { n.entry(prog).plus += k }
func (n *node) retire(prog *Program, k int64)  { n.entry(prog).minus += k }
func (n *node) decLiveProg(prog *Program)      { n.retire(prog, 1) }

// settle publishes the ledger: the beat, then the net of created and
// retired to the node's shard of the machine-wide gauge and to the
// program's exact count, whose zero crossing completes the program.  It
// runs before anything this node did can be seen from outside it — before
// every packet it sends and every wait — and at the run loop's epoch, so
// a busy node's gauges lag by at most 64 tasks.
//
// On a multi-process machine the local zero crossing means nothing (units
// retire in other processes too); completion there is the leader's call,
// from the cumulative counters (dist.go).  created is published before
// consumed, the order Program.counts relies on, and the program is noted
// for the node's next share check (checkShares).
func (n *node) settle() {
	l := &n.led
	if l.beat != 0 {
		n.m.beat.add(int(n.id), l.beat)
		l.beat = 0
	}
	if l.plus|l.minus == 0 {
		return
	}
	plus, minus := l.plus, l.minus
	l.plus, l.minus = 0, 0
	l.settles++
	d := plus - minus
	if d != 0 {
		n.m.live.add(int(n.id), d)
	}
	prog := l.prog
	if prog == nil {
		return // units of a packet abandoned with no program on record
	}
	if n.m.dist != nil {
		prog.created.Add(plus)
		prog.consumed.Add(minus)
		n.touch(prog)
		return
	}
	if d != 0 && prog.live.Add(d) == 0 {
		prog.finishProg()
	}
}

// touch notes prog for the node's next share check.
func (n *node) touch(prog *Program) {
	for _, p := range n.touched {
		if p == prog {
			return
		}
	}
	n.touched = append(n.touched, prog)
}

// checkShares is the trigger of the cross-process termination waves
// (dist.go).  For each program this node published work for since its
// last check, it compares this process's net created − consumed with the
// net last reported, and asks for a report if one differs or a worker
// result was boxed since.  A node runs it at its idle edge and its
// run-loop epoch, after settling: a node that never parks still checks.
func (n *node) checkShares() {
	d := n.m.dist
	moved := d.boxNew.Load()
	for _, p := range n.touched {
		moved = moved || p.shareMoved()
	}
	clear(n.touched)
	n.touched = n.touched[:0]
	if moved {
		d.wantWave()
	}
}

// progLaunch is the front end's program-load request, served by node 0.
type progLaunch struct {
	prog *Program
	fn   func(ctx *Context)
}

// Start boots the node kernels.  The machine then runs — serving programs
// loaded with Launch — until Shutdown.  Run wraps
// Start/Launch/Wait/Shutdown for the common single-program case.
func (m *Machine) Start() error {
	if m.running.Swap(true) {
		return fmt.Errorf("core: machine already running")
	}
	m.stop = make(chan struct{})
	m.stopping.Store(false)
	m.stopOnce = new(sync.Once)
	m.draining.Store(0)
	m.parked.reset()
	m.live.reset()
	m.mu.Lock()
	m.failed = nil
	m.mu.Unlock()
	m.stallDump = ""

	for _, n := range m.nodes {
		n.vclock = 0
		n.events.reset()
		n.led = ledger{} // entries of a run that ExitNow or a stall cut short
	}
	m.pace.reset()

	if m.dist != nil {
		if err := m.nw.StartTransport(); err != nil {
			m.running.Store(false)
			return err
		}
	}
	m.monDone = make(chan struct{})
	m.monExited = make(chan struct{})
	go func() {
		defer close(m.monExited)
		if m.dist != nil {
			// The per-process live gauge cannot see cross-process work,
			// so the dist control plane replaces the local stall monitor:
			// the leader detects global quiescence and stalls, followers
			// watch for the leader's probes going silent.
			m.dist.run(m.stop, m.monDone)
			return
		}
		m.monitor(m.stop, m.monDone)
	}()
	m.wg.Add(len(m.local))
	for _, n := range m.local {
		go n.run()
	}
	return nil
}

// Launch loads a program: root runs as a method of a fresh actor on node
// 0 (the paper's dynamically loaded executable's entry point).  The
// machine must be started.
func (m *Machine) Launch(root func(ctx *Context)) (*Program, error) {
	if !m.running.Load() {
		return nil, fmt.Errorf("core: Launch before Start")
	}
	if m.dist != nil && !m.dist.leader {
		return nil, fmt.Errorf("core: only the leader process loads programs")
	}
	// The front end injects the load through its own endpoint; node 0's
	// kernel instantiates the root actor (program loading is node-manager
	// work, like any other request).  Launches may come from several user
	// goroutines; the endpoint itself is single-owner.
	m.progMu.Lock()
	prog := m.newProg()
	m.progMu.Unlock()
	m.incLiveAt(m.cfg.Nodes, prog, 1) // the bootstrap message
	m.launchMu.Lock()
	m.frontEP.Send(amnet.Packet{
		Handler: hLoadProgram,
		Dst:     0,
		Payload: progLaunch{prog: prog, fn: root},
	})
	m.launchMu.Unlock()
	return prog, nil
}

// Shutdown stops the node kernels.  In-flight work of still-running
// programs is abandoned (their Wait returns an error).  On a
// multi-process machine the leader's Shutdown also tells every worker to
// shut down (and waits, bounded, for their acknowledgments); a worker's
// Shutdown is local.
func (m *Machine) Shutdown() {
	if !m.running.Load() {
		return
	}
	leader := m.dist != nil && m.dist.leader
	var shutErr error
	if leader {
		shutErr = m.dist.broadcastShutdown(false, "")
	}
	m.finish(nil)
	if m.dist != nil {
		// Our node goroutines stop draining rings now; inbound wire
		// packets must discard, or a peer's transport reader blocks in
		// Inject forever and wedges that process's shutdown too.
		m.nw.SetInjectDiscard(true)
	}
	m.wg.Wait()
	close(m.monDone)
	<-m.monExited
	if leader && shutErr == nil {
		m.dist.awaitByes()
	}
	m.running.Store(false)
}

// DistWait blocks a worker process until the leader announces shutdown
// (or the local machine fails), returning the error the leader reported,
// if any.  It is a no-op returning nil on the leader or a single-process
// machine.  The caller still owns Shutdown and the transport's Close.
func (m *Machine) DistWait() error {
	if m.dist == nil || m.dist.leader {
		return nil
	}
	select {
	case <-m.dist.shutdownc:
	case <-m.stop:
	}
	m.dist.mu.Lock()
	err := m.dist.shutErr
	m.dist.mu.Unlock()
	if err != nil {
		return err
	}
	m.mu.Lock()
	err = m.failed
	m.mu.Unlock()
	return err
}

// handleLoadProgram instantiates a program's root actor (on node 0).
func (n *node) handleLoadProgram(pl progLaunch) {
	a := n.createLocal(&rootBehavior{fn: pl.fn})
	msg := n.newMsg()
	msg.To, msg.Sel, msg.Reply = a.addr, selRoot, invalidReply
	msg.prog = pl.prog
	msg.vt = n.vclock
	n.enqueueLocal(a, msg)
}
