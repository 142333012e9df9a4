package core

import (
	"fmt"
	"io"
	"os"
	"time"

	"hal/internal/amnet"
)

// Config configures a Machine.  The zero value is not valid; use
// DefaultConfig or set Nodes explicitly.
type Config struct {
	// Nodes is the number of processing elements in the simulated
	// partition.
	Nodes int

	// InboxCap is each node's network inbox capacity in packets; small
	// values create realistic back-pressure.  Default 1024.
	InboxCap int

	// Flow selects the bulk-transfer flow-control policy (Table 1's
	// "with/without flow control" experiment).  Default FlowOneActive.
	Flow amnet.FlowMode

	// LoadBalance enables receiver-initiated random-polling dynamic load
	// balancing: idle nodes steal deferred creations (NewAuto) from
	// random victims.
	LoadBalance bool

	// FastPathDepth bounds the stack depth of SendFast's
	// compiler-controlled stack-based scheduling; 0 disables the fast
	// path entirely (every SendFast falls back to the generic send).
	// Default 64.
	FastPathDepth int

	// DisableLDCache, when set, makes every remote send route through
	// the receiver's birthplace instead of caching the remote locality
	// descriptor's address (an ablation of § 4.1's caching).
	DisableLDCache bool

	// NaiveForwarding, when set, forwards the ENTIRE message along a
	// migration chain hop by hop instead of holding it and locating the
	// actor with a small FIR (an ablation of § 4.3: no cache repair, and
	// bulk payloads are copied across every hop).
	NaiveForwarding bool

	// StallTimeout bounds how long the machine may sit with live work
	// but every node parked and no traffic before Run fails with
	// ErrStalled (a deadlocked constraint, or a message to a dead
	// actor).  Default 5s; negative disables detection.
	StallTimeout time.Duration

	// NodeSpeed optionally scales each node's virtual execution rate, for
	// simulating the heterogeneous networks of workstations the paper's
	// conclusions point at: node i's charges are divided by NodeSpeed[i]
	// (2.0 = twice as fast, 0.5 = half speed).  Empty means uniform.
	NodeSpeed []float64

	// Seed seeds the per-node RNGs (placement, steal victims).  A zero
	// seed selects a fixed default, keeping runs reproducible.
	Seed int64

	// Faults, when non-nil, injects deterministic network faults (link
	// cuts and node pauses — see amnet.FaultPlan).  A cut holds a link's
	// packets and replays them in order: in memory at the receiving
	// endpoint, and with Dist set by dropping the socket connection,
	// whose redial replays it.  Either way the link recovers on its own
	// and the kernel runs the same code as without a plan.  A zero
	// Faults.Seed inherits Seed.  The plan is normalized in place and
	// may be shared across machines.
	Faults *amnet.FaultPlan

	// Out receives front-end output (ctx.Printf).  Default os.Stdout.
	Out io.Writer

	// TraceBuffer, when positive, records up to this many kernel events
	// per node (newest kept) for Machine.Trace.  Zero disables tracing.
	TraceBuffer int

	// TraceSink, when non-nil, additionally streams every kernel trace
	// event as it is recorded, independent of TraceBuffer.  See the
	// TraceSink interface for the concurrency contract, and
	// NewChromeTraceWriter for the Chrome trace-event implementation.
	// Streaming does I/O on kernel paths; use it for debugging, not for
	// benchmarking.
	TraceSink TraceSink

	// FlightPath, when non-empty, makes the machine write a
	// flight-recorder dump — the newest FlightEvents trace events per
	// node plus a stats snapshot — to this file when a run dies of
	// ErrStalled, so a hung run leaves evidence.  See
	// Machine.WriteFlightRecord.
	FlightPath string

	// FlightEvents bounds how many newest events per node a flight
	// record includes.  Default 64.
	FlightEvents int

	// OnMachine, when non-nil, is called once from NewMachine with the
	// fully constructed machine before it is returned.  Application
	// wrappers build machines internally and never expose them; the hook
	// lets an observer (halrun's -debug-addr endpoint) reach the machine
	// for StatsNow polling anyway.
	OnMachine func(*Machine)

	// Dist, when non-nil, makes this machine one process of a machine
	// spanning several OS processes: only the nodes in [Dist.Lo, Dist.Hi)
	// run kernel goroutines here, and packets to the rest travel
	// Dist.Transport.  Every participating process must build the machine
	// with the SAME Nodes, Seed, and registered types (in the same order)
	// — the spec blob the transport handshake carries exists to make that
	// easy.  See dist.go.
	Dist *DistConfig
}

// DistConfig configures one process's share of a multi-process machine.
type DistConfig struct {
	// Transport carries packets to non-resident nodes (e.g. a
	// sock.Transport returned by sock.Listen or sock.Join).
	Transport amnet.Transport

	// Leader marks the process that loads programs, detects global
	// quiescence, and owns the front end.  Exactly one process (the one
	// hosting node 0) is the leader.
	Leader bool

	// Lo, Hi is this process's node span [Lo, Hi); it must match what
	// Transport.Resident answers.
	Lo, Hi int
}

func (d *DistConfig) validate(nodes int) error {
	if d.Transport == nil {
		return fmt.Errorf("core: Dist needs a Transport")
	}
	if d.Lo < 0 || d.Hi <= d.Lo || d.Hi > nodes {
		return fmt.Errorf("core: Dist span [%d,%d) invalid for %d nodes", d.Lo, d.Hi, nodes)
	}
	if d.Leader != (d.Lo == 0) {
		return fmt.Errorf("core: the leader is the process hosting node 0 (span [%d,%d), leader=%v)", d.Lo, d.Hi, d.Leader)
	}
	return nil
}

// segWords is the bulk-transfer segment size in float64 words: message
// Data payloads larger than this ride the three-phase protocol.
const segWords = 512

// reportEvery is the dist leader's termination-probe period.
const reportEvery = 2 * time.Millisecond

// stealBackoffBase is the pause between steal attempts after a denial
// (receiver-initiated polling is otherwise continuous).
const stealBackoffBase = 20 * time.Microsecond

// DefaultConfig returns a configuration for nodes PEs with the paper's
// defaults (flow control on, LD caching on, no load balancing).
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes}
}

func (c *Config) applyDefaults() error {
	if c.Nodes < 1 {
		return fmt.Errorf("core: config needs at least 1 node, got %d", c.Nodes)
	}
	if c.InboxCap <= 0 {
		c.InboxCap = 1024
	}
	if c.FastPathDepth == 0 {
		c.FastPathDepth = 64
	}
	if c.FastPathDepth < 0 {
		c.FastPathDepth = 0
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 5 * time.Second
	}
	if len(c.NodeSpeed) > 0 {
		if len(c.NodeSpeed) != c.Nodes {
			return fmt.Errorf("core: NodeSpeed has %d entries for %d nodes", len(c.NodeSpeed), c.Nodes)
		}
		for i, s := range c.NodeSpeed {
			if s <= 0 {
				return fmt.Errorf("core: NodeSpeed[%d] = %v must be positive", i, s)
			}
		}
	}
	if c.Seed == 0 {
		c.Seed = 0x1e3779b97f4a7c15
	}
	if c.Faults != nil && c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = 64
	}
	if c.Dist != nil {
		if err := c.Dist.validate(c.Nodes); err != nil {
			return err
		}
		if c.LoadBalance {
			// Steal grants would need cross-process live-gauge agreement
			// the per-process gauges cannot give; explicit placement
			// (NewOn, Migrate) spans processes fine.
			return fmt.Errorf("core: LoadBalance is not supported on a multi-process machine")
		}
	}
	return nil
}
