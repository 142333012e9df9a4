// Package hal is a Go reproduction of the runtime system described in
// WooYoung Kim and Gul Agha, "Efficient Support of Location Transparency
// in Concurrent Object-Oriented Programming Languages" (SC '95): an actor
// runtime with a distributed name server, alias-based remote creation,
// local synchronization constraints, join continuations, broadcast over a
// binomial spanning tree with collective scheduling, minimal flow control
// for bulk transfers, actor migration, and receiver-initiated dynamic
// load balancing — all running on a simulated CM-5-style multicomputer
// (one goroutine per processing element, bounded lock-free rings as the
// interconnect, and per-node virtual clocks for machine-independent
// timing).
//
// Quick start:
//
//	m, _ := hal.NewMachine(hal.DefaultConfig(4))
//	greeter := m.RegisterType("greeter", func(args []any) hal.Behavior {
//		return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
//			ctx.Reply(msg, "hello from node "+fmt.Sprint(ctx.Node()))
//		})
//	})
//	result, _ := m.Run(func(ctx *hal.Context) {
//		a := ctx.NewOn(3, greeter)
//		j := ctx.NewJoin(1, func(ctx *hal.Context, slots []any) {
//			ctx.Exit(slots[0])
//		})
//		ctx.Request(a, 1, j, 0)
//	})
//
// The implementation lives in internal/core (runtime kernel),
// internal/names (distributed name server), internal/amnet (Active
// Messages interconnect), internal/sched (dispatcher structures), and
// internal/slotmap (generation-tagged arenas).
package hal

import (
	"io"

	"hal/internal/amnet"
	"hal/internal/core"
)

// Core types re-exported as the public API.
type (
	// Machine is a simulated multicomputer partition running the HAL
	// kernel on every node.
	Machine = core.Machine
	// Config configures a Machine.
	Config = core.Config
	// CostModel names the virtual-time cost of each runtime primitive.
	CostModel = core.CostModel
	// Context is the actor interface passed to Receive.
	Context = core.Context
	// Message is an actor message.  Its arguments are read with NArgs,
	// Arg(i) and the typed accessors Int, Float, Addr and Group.
	Message = core.Message
	// Ref wraps a message argument, reply or Join.Set value of a type
	// outside the kernel's value set (nil, int, int64, uint64, float64,
	// bool, string, Addr, Group, ReplyTo, Selector, TypeID, []float64,
	// Join) — a bare one panics: ctx.Send(to, sel, hal.Ref{V: point}).  The
	// receiver gets V itself; between processes V crosses as gob, so its
	// type is registered with gob.Register in every process.
	Ref = core.Ref
	// Behavior is an actor behavior.
	Behavior = core.Behavior
	// BehaviorFunc adapts a function to Behavior.
	BehaviorFunc = core.BehaviorFunc
	// Constrained adds local synchronization constraints to a Behavior.
	Constrained = core.Constrained
	// Cloner adds deep copy on node crossings to a Behavior.
	Cloner = core.Cloner
	// Selector names a behavior method.
	Selector = core.Selector
	// TypeID identifies a registered behavior type.
	TypeID = core.TypeID
	// Addr is an actor mail address.
	Addr = core.Addr
	// Group handles a set of actors created together (grpnew).
	Group = core.Group
	// Join is a handle to a pending join continuation.
	Join = core.Join
	// JoinFunc runs when a join continuation's slots are all filled; it
	// must not retain slots beyond the call (the kernel reuses them).
	JoinFunc = core.JoinFunc
	// MachineStats aggregates per-node runtime statistics.
	MachineStats = core.MachineStats
	// NodeStats counts one node kernel's activity.
	NodeStats = core.NodeStats
	// Program is a handle to one loaded program on a started machine
	// (Machine.Start / Machine.Launch / Program.Wait / Machine.Shutdown
	// run several programs concurrently, as the paper's kernels do).
	Program = core.Program
	// FaultPlan describes deterministic network fault injection
	// (Config.Faults).  With a plan set the kernel runs its reliable
	// control-plane protocols: sequencing, retry with backoff, and
	// bounded escalation to dead letters.
	FaultPlan = amnet.FaultPlan
	// DistConfig places one process's Machine inside a multi-process
	// partition (Config.Dist): the Transport carries packets between
	// processes and [Lo, Hi) is the span of node kernels this process
	// hosts.  See internal/amnet/sock for the socket transport.
	DistConfig = core.DistConfig
	// Transport is the pluggable interconnect a distributed Machine
	// sends through.
	Transport = amnet.Transport
	// Event is one recorded kernel trace event (Config.TraceBuffer,
	// Machine.Trace).
	Event = core.Event
	// EventKind classifies a trace event.
	EventKind = core.EventKind
	// TraceSink receives streamed kernel trace events (Config.TraceSink).
	TraceSink = core.TraceSink
	// ChromeTraceWriter streams trace events as Chrome trace-event JSON
	// (about:tracing / Perfetto).
	ChromeTraceWriter = core.ChromeTraceWriter
)

// Nil is the invalid mail address.
var Nil = core.Nil

// ErrStalled is returned by Run when live work remains but no node can
// make progress.
var ErrStalled = core.ErrStalled

// NewMachine builds a machine with cfg.
func NewMachine(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }

// DefaultConfig returns a configuration for nodes PEs with the paper's
// defaults (flow control on, locality caching on, no load balancing).
func DefaultConfig(nodes int) Config { return core.DefaultConfig(nodes) }

// DefaultCostModel returns the paper-calibrated virtual-time costs the
// kernel charges.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// NewChromeTraceWriter starts a Chrome trace-event JSON array on w; use
// the result as Config.TraceSink and Close it after the run.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter { return core.NewChromeTraceWriter(w) }

// WriteChromeTrace writes events (e.g. Machine.Trace after a run) to w as
// a complete Chrome trace-event JSON document.
func WriteChromeTrace(w io.Writer, events []Event) error { return core.WriteChromeTrace(w, events) }
