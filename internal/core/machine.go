package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hal/internal/amnet"
)

// ErrStalled is returned (wrapped) by Run when live work remains but every
// node is parked with no traffic: a synchronization-constraint deadlock,
// or messages routed to an actor that will never exist.
var ErrStalled = errors.New("core: machine stalled with undeliverable work")

// Machine is a simulated multicomputer partition running the HAL kernel on
// every node.  Create one with NewMachine, register behavior types (the
// analog of loading a program's executable on all nodes), then call Run.
// A machine may Run several programs sequentially; actors created by
// earlier runs persist, as they do in the paper's multi-program kernels.
type Machine struct {
	cfg   Config
	nw    *amnet.Network
	nodes []*node
	// local is the slice of nodes whose kernel goroutines run in THIS
	// process: all of them single-process, the Dist span otherwise.
	// Every process of a multi-process machine allocates all P node
	// structs (ids, arenas, and handler tables are global), but only the
	// local span executes.
	local []*node
	// dist is the cross-process control plane (dist.go), nil for a
	// single-process machine.
	dist *distState

	types      []typeEntry
	typeByName map[string]TypeID
	pace       pacer

	// msgSpill holds the freed messages a node's own freelist had no room
	// for (node.go freeMsg), for whichever node allocates next.
	msgSpill sync.Pool

	// live counts undone work: queued messages, held messages, deferred
	// creations, scheduled continuations.  Sharded per node (slot cfg.Nodes
	// is the front end's); a node adds its ledger's net at each settle
	// (program.go), so the gauge lags a busy node and is exact when every
	// node waits.  Readers aggregate (shard.go).
	live sharded
	// beat counts tasks executed; the stall monitor watches its aggregate
	// for progress.  Sharded and settled like live.
	beat   sharded
	parked sharded

	running  atomic.Bool
	stopping atomic.Bool // stop is closed or about to be
	stop     chan struct{}
	stopOnce *sync.Once
	draining atomic.Int32
	wg       sync.WaitGroup

	// frontEP is the front end's own network endpoint (the partition
	// manager's attachment), used to inject program loads.
	frontEP  *amnet.Endpoint
	launchMu sync.Mutex
	// progs holds the programs still running here, by id: a program
	// crosses a process boundary as its id (progForWire), and finishProg
	// drops its entry.  progSeq is the highest id allocated or heard of;
	// it moves only under progMu, which guards progs and nothing else
	// (launchMu is held across a blocking send).
	progMu  sync.Mutex
	progs   map[uint64]*Program
	progSeq atomic.Uint64

	monDone   chan struct{}
	monExited chan struct{}

	mu        sync.Mutex // guards failed
	failed    error
	stallDump string

	printMu sync.Mutex // serializes front-end output
}

// frontPrintf is the front end's I/O service: node kernels forward actor
// output here, and the partition manager serializes it onto cfg.Out.
func (m *Machine) frontPrintf(format string, args ...any) {
	m.printMu.Lock()
	defer m.printMu.Unlock()
	fmt.Fprintf(m.cfg.Out, format, args...)
}

type typeEntry struct {
	name string
	ctor func(args []any) Behavior
}

// NewMachine builds a machine with cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	// One endpoint per PE plus one for the front end (program loading).
	ncfg := amnet.Config{
		Nodes:    cfg.Nodes + 1,
		InboxCap: cfg.InboxCap,
		Flow:     cfg.Flow,
		Faults:   cfg.Faults,
	}
	if cfg.Dist != nil {
		ncfg.Remote = cfg.Dist.Transport
	}
	nw, err := amnet.NewNetwork(ncfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:        cfg,
		nw:         nw,
		typeByName: make(map[string]TypeID),
		types:      []typeEntry{{name: "<invalid>"}}, // TypeID 0 reserved
		progs:      make(map[uint64]*Program),
	}
	m.pace.init(cfg.Nodes, cfg.LoadBalance)
	m.live = newSharded(cfg.Nodes + 1) // one slot per node + the front end
	m.beat = newSharded(cfg.Nodes)
	m.parked = newSharded(cfg.Nodes)
	m.nodes = make([]*node, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = newNode(m, amnet.NodeID(i))
	}
	m.frontEP = nw.Endpoint(amnet.NodeID(cfg.Nodes))
	m.local = m.nodes
	if cfg.Dist != nil {
		m.local = m.nodes[cfg.Dist.Lo:cfg.Dist.Hi]
		m.dist = newDistState(m, cfg.Dist)
		cfg.Dist.Transport.SetPayloadCodec(&payloadCodec{m: m})
		cfg.Dist.Transport.OnControl(m.dist.onCtl)
	}
	registerKernelHandlers(m)
	if cfg.Faults != nil {
		nw.SetFaultObserver(func(dst amnet.NodeID, kind amnet.FaultKind, p amnet.Packet) {
			if int(dst) >= len(m.nodes) {
				return // front-end endpoint
			}
			if kind == amnet.FaultCut {
				m.nodes[dst].trace(EvFaultCut, Nil, p.Src)
			} else {
				m.nodes[dst].trace(EvFaultPause, Nil, amnet.NoNode)
			}
		})
	}
	if m.cfg.OnMachine != nil {
		m.cfg.OnMachine(m)
	}
	return m, nil
}

// Nodes returns the partition size.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Config returns the machine configuration after defaulting.
func (m *Machine) Config() Config { return m.cfg }

// RegisterType installs a behavior constructor under name on every node
// and returns its TypeID.  This models the program load module: creation
// requests and migrations carry (TypeID, args), never code.  Registration
// must happen before Run; duplicate names panic.
func (m *Machine) RegisterType(name string, ctor func(args []any) Behavior) TypeID {
	if m.running.Load() {
		panic("core: RegisterType while machine is running")
	}
	if _, dup := m.typeByName[name]; dup {
		panic(fmt.Sprintf("core: behavior type %q registered twice", name))
	}
	if ctor == nil {
		panic("core: nil behavior constructor")
	}
	id := TypeID(len(m.types))
	m.types = append(m.types, typeEntry{name: name, ctor: ctor})
	m.typeByName[name] = id
	return id
}

// TypeByName returns the TypeID registered under name, or 0 if none.
func (m *Machine) TypeByName(name string) TypeID { return m.typeByName[name] }

func (m *Machine) construct(t TypeID, args []any) Behavior {
	if t <= 0 || int(t) >= len(m.types) {
		panic(fmt.Sprintf("core: unknown behavior type %d", t))
	}
	return m.types[t].ctor(args)
}

// rootBehavior runs a bootstrap function once.
type rootBehavior struct {
	fn func(ctx *Context)
}

func (r *rootBehavior) Receive(ctx *Context, _ *Message) {
	r.fn(ctx)
	ctx.Die()
}

// selRoot is the selector used for the bootstrap message.
const selRoot Selector = -1

// Run executes root as a single program: it starts the machine, loads the
// program, waits for it to quiesce (Run returns its ctx.Exit value, or nil)
// and shuts the machine down.  For several concurrent programs use
// Start/Launch/Wait/Shutdown directly.
func (m *Machine) Run(root func(ctx *Context)) (any, error) {
	if err := m.Start(); err != nil {
		return nil, err
	}
	prog, err := m.Launch(root)
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	v, werr := prog.Wait()
	m.Shutdown()
	if werr != nil {
		return nil, werr
	}
	return v, nil
}

// finish stops every node; the first call wins.  The run's result is
// whatever setResult recorded; err (if any) becomes Run's error.
//
// Close, then wake: a node's wait polls stop and blocks on its wake
// channel alone, so a node that checked stop before the close is owed the
// token, and gets it whether or not it has blocked yet.
func (m *Machine) finish(err error) {
	m.stopOnce.Do(func() {
		if err != nil {
			m.mu.Lock()
			m.failed = err
			m.mu.Unlock()
		}
		m.stopping.Store(true)
		close(m.stop)
		for _, n := range m.local {
			n.ep.Wake()
		}
	})
}

// stopped is the run loop's per-iteration check: the flag finish sets
// just before it closes stop, because polling the channel itself was
// 2.4 % of an unloaded remote hop.
func (m *Machine) stopped() bool { return m.stopping.Load() }

// monitor detects stalls: live work remaining while every node is parked,
// no packets are queued, and no progress happens across two consecutive
// checks.
//
//halvet:allowwallclock the stall watchdog needs a clock that keeps ticking precisely when VT does not — a wedged machine makes no virtual progress to observe
func (m *Machine) monitor(stop <-chan struct{}, done <-chan struct{}) {
	if m.cfg.StallTimeout < 0 {
		return
	}
	interval := m.cfg.StallTimeout / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var prevBeat int64
	strikes := 0
	for {
		select {
		case <-done:
			return
		case <-stop:
			return
		case <-t.C:
		}
		// Aggregating reads over the sharded gauges: each is a racy sum,
		// but a misread implies concurrent activity, which bumps beat and
		// resets the strike count — see shard.go.
		beat := m.beat.sum()
		live := m.live.sum()
		quiet := true
		if !m.cfg.LoadBalance {
			// Without load balancing the machine is stalled only if
			// every node is parked with empty inboxes; with it, steal
			// polling keeps nodes and links busy forever, so the
			// absence of task-execution progress (beat) decides alone.
			quiet = m.parked.sum() == int64(len(m.nodes))
			for _, n := range m.nodes {
				if n.ep.Pending() > 0 {
					quiet = false
					break
				}
			}
		}
		if live > 0 && quiet && beat == prevBeat {
			strikes++
			if strikes >= 2 {
				// Snapshot the kernels BEFORE shutdown purges them.
				// The nodes are parked, but this read is technically
				// racy; it is diagnostic text only.
				m.stallDump = m.dumpLocked()
				if m.cfg.FlightPath != "" {
					m.writeFlightFile()
				}
				m.finish(fmt.Errorf("%w: %d work item(s) remain", ErrStalled, live))
				return
			}
		} else {
			strikes = 0
		}
		prevBeat = beat
	}
}

// Stats snapshots per-node and aggregate statistics.  Call only while the
// machine is not running.
func (m *Machine) Stats() MachineStats {
	if m.running.Load() {
		panic("core: Stats while machine is running")
	}
	var out MachineStats
	out.PerNode = make([]NodeStats, len(m.nodes))
	for i, n := range m.nodes {
		n.snapshot(&out.PerNode[i])
		out.Total.add(out.PerNode[i])
	}
	if m.dist != nil {
		out.Wire = m.dist.t.TransportStats()
	}
	return out
}

// StatsNow snapshots statistics while the machine is running (it is also
// valid when stopped).  Each node republishes its counters into a mirror
// between task executions — every 64 loop iterations and before it really
// parks — so the returned per-node figures are internally consistent, at
// most 64 tasks stale while the node runs and exact once it is parked.
// Snapshots of different nodes are taken at (slightly) different instants,
// so cross-node identities that hold post-run (e.g. global sent ==
// received) may be off by in-flight work.  After Shutdown, StatsNow and
// Stats agree exactly.
func (m *Machine) StatsNow() MachineStats {
	var out MachineStats
	out.PerNode = make([]NodeStats, len(m.nodes))
	for i, n := range m.nodes {
		n.snapMu.Lock()
		s := n.snap
		n.snapMu.Unlock()
		out.PerNode[i] = s
		out.Total.add(s)
	}
	if m.dist != nil {
		out.Wire = m.dist.t.TransportStats()
	}
	return out
}

// RetryExhausted is always false: no layer above the link retries or
// abandons a packet.  It stays for the benchmark harness, which reads it.
func (m *Machine) RetryExhausted() bool { return false }

// newProg allocates the next program id and enters the program in the
// table.  Caller holds progMu.
func (m *Machine) newProg() *Program {
	p := &Program{id: m.progSeq.Add(1), m: m, done: make(chan struct{})}
	p.reported.Store(unreported)
	m.progs[p.id] = p
	return p
}

// progByID returns the running program with the given id, or nil: for id
// 0, a finished program, or one not heard of here.
func (m *Machine) progByID(id uint64) *Program {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	return m.progs[id]
}

// programs appends the programs still running here to buf.
func (m *Machine) programs(buf []*Program) []*Program {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	for _, p := range m.progs {
		buf = append(buf, p)
	}
	return buf
}
