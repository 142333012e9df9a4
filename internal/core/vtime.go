package core

import (
	"math"
	"time"
)

// Virtual time.
//
// Each node kernel keeps a virtual clock (microseconds, float64) advanced
// by the cost model below.  Work-carrying packets are stamped with a
// virtual arrival time; when the work is dispatched the executing node's
// clock first advances to max(clock, stamp), so causal chains — request
// trees, pipelines, barriers — are respected even though the simulated PEs
// time-share however many host CPUs exist.  The run's virtual makespan
// (max final clock) is what the scaling experiments report.
//
// The costs are calibrated to the paper's Table 2 (CM-5, 33 MHz SPARC):
// local creation ≈ 5 µs, the alias-visible part of a remote creation
// 5.83 µs with the actual creation 20.83 µs, locality check < 1 µs.

// CostModel names the virtual cost, in microseconds, of each runtime
// primitive.  The costs are measured constants of one machine (the paper's
// Table 2), not parameters: the kernel charges the cost* constants below,
// and this struct exists so the table generators can print the paper's
// column from DefaultCostModel.
type CostModel struct {
	// Dispatch is charged per method dispatch (queue pop, enabledness
	// check, static or dynamic method lookup).
	Dispatch float64
	// LocalSend / RemoteSend are the sender-side costs of the generic
	// send mechanism (locality check included).
	LocalSend  float64
	RemoteSend float64
	// FastSend is the compiler fast path: locality check + enabled check
	// + direct invocation setup.
	FastSend float64
	// NetLatency is the one-way packet latency between nodes.
	NetLatency float64
	// PerWord is the per-float64-word cost of moving bulk data (charged
	// at the receiver; also at the sender when flow control is off and
	// the send stalls the PE).
	PerWord float64
	// CreateLocal is a local actor creation.
	CreateLocal float64
	// CreateAlias is the requester-visible part of a remote/deferred
	// creation (alias allocation + request injection): Table 2's 5.83 µs.
	CreateAlias float64
	// CreateServe is the served part of a remote creation (Table 2's
	// 20.83 µs minus the alias part).
	CreateServe float64
	// Lookup is the receiving node manager's name-table consultation,
	// paid only for deliveries that arrive WITHOUT a cached descriptor
	// address (the saving § 4.1's caching buys).
	Lookup float64
	// Reply is the cost of filling a continuation slot.
	Reply float64
	// Migrate is charged at the new home when installing a migrated
	// actor.
	Migrate float64
	// Steal is the node-manager cost of serving one steal poll.
	Steal float64
}

// The cost model: Table 2's order of magnitude on the CM-5, one constant
// per CostModel field.
const (
	costDispatch    = 2.0
	costLocalSend   = 3.0
	costRemoteSend  = 6.0
	costFastSend    = 1.0
	costNetLatency  = 6.0
	costPerWord     = 0.8 // ~10 MB/s per node, the CM-5 data network's realistic rate
	costCreateLocal = 5.0
	costCreateAlias = 5.83
	costCreateServe = 15.0 // 20.83 total minus the alias-visible part
	costLookup      = 1.0
	costReply       = 2.0
	costMigrate     = 25.0
	costSteal       = 4.0
)

// DefaultCostModel returns the cost model the kernel charges.
func DefaultCostModel() CostModel {
	return CostModel{
		Dispatch:    costDispatch,
		LocalSend:   costLocalSend,
		RemoteSend:  costRemoteSend,
		FastSend:    costFastSend,
		NetLatency:  costNetLatency,
		PerWord:     costPerWord,
		CreateLocal: costCreateLocal,
		CreateAlias: costCreateAlias,
		CreateServe: costCreateServe,
		Lookup:      costLookup,
		Reply:       costReply,
		Migrate:     costMigrate,
		Steal:       costSteal,
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// vnow returns the node's virtual clock.
func (n *node) vnow() float64 { return n.vclock }

// charge advances the node's virtual clock by cost microseconds of
// reference-machine work, scaled by this node's speed (heterogeneous
// configurations run some PEs faster or slower than the reference).
func (n *node) charge(cost float64) { n.vclock += cost * n.invSpeed }

// syncTo advances the clock to at least t (work arrival).
func (n *node) syncTo(t float64) {
	if t > n.vclock {
		n.vclock = t
	}
}

// stamp computes the virtual arrival time of a packet sent now, carrying
// words of bulk payload.
func (n *node) stamp(words int) float64 {
	return n.vclock + costNetLatency + float64(words)*costPerWord
}

// Charge adds d of application compute to the current node's virtual
// clock.  Applications use it to account for work they either really
// perform (slowly, on shared host CPUs) or model (e.g. flops × per-flop
// time of the simulated machine).
func (c *Context) Charge(d time.Duration) {
	c.n.charge(float64(d) / float64(time.Microsecond))
}

// VTime returns the current node's virtual clock.
func (c *Context) VTime() time.Duration {
	return time.Duration(c.n.vclock * float64(time.Microsecond))
}

// VirtualTime returns the run's virtual makespan: the maximum virtual
// clock over all nodes.  After Shutdown (or Run) it is exact; on a
// running machine it is a safe point-in-time snapshot of each node's
// last published clock.
func (m *Machine) VirtualTime() time.Duration {
	max := 0.0
	for _, d := range m.NodeVirtualTimes() {
		if v := float64(d) / float64(time.Microsecond); v > max {
			max = v
		}
	}
	return time.Duration(max * float64(time.Microsecond))
}

// NodeVirtualTimes returns each node's virtual clock (exact when the
// machine is stopped, a published snapshot while it runs).
func (m *Machine) NodeVirtualTimes() []time.Duration {
	out := make([]time.Duration, len(m.nodes))
	running := m.running.Load()
	for i, n := range m.nodes {
		v := n.vclock
		if running {
			v = math.Float64frombits(m.pace.slots[i].clock.Load())
		}
		out[i] = time.Duration(v * float64(time.Microsecond))
	}
	return out
}
