package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"hal/internal/amnet"
	"hal/internal/core"
	"hal/internal/hist"
)

// env parameterises one run of a workload.  The program under test sees
// only what a rig derives from it.
type env struct {
	seed int64
	// scale divides every workload's size; 1 is the published size, the
	// tests run at 50.
	scale int
	// traceBuf is Config.TraceBuffer for every machine built (0 = off).
	traceBuf int
	// tamper makes every output check expect a value that is off by one,
	// so the ops-failed path can be exercised on a correct program.
	tamper bool
	// outDir holds unix sockets while a rig is open, and trace.json.
	outDir string
	spans  *spanLog
}

func (e *env) div(n int) int { return max(1, n/max(1, e.scale)) }

// off is what an output check adds to its expected value.
func (e *env) off() int {
	if e.tamper {
		return 1
	}
	return 0
}

// workload is one closed-loop input set; the catalogue is in workloads.go.
type workload struct {
	name string
	op   string // what one operation is
	why  string
	// ungated says why BENCHMARK.json does not list the workload, so that
	// no later change is judged by it; the command runs it like the rest.
	ungated string
	// minRounds is the floor on timed rounds of an end-to-end pass,
	// traceRounds the fixed round count of each traced pass.
	minRounds, traceRounds int
	open                   func(e *env) (rig, error)
}

// rig is one built instance of a workload: its machines (for the
// workloads that keep one), registered types and sockets.
type rig interface {
	// round runs one fixed-work round and checks its outputs.
	round(r int) (roundOut, error)
	// close tears the rig down and returns the counters of every round it
	// ran.
	close() tally
}

// roundOut is what one round reports.
type roundOut struct {
	ops, failed int64
	lat         []float64 // µs; owned by the rig, valid until its next round
	virtUS      float64   // virtual time the round advanced the machine by
}

// tally accumulates the Machine.Stats and TransportStats counters the
// per-layer metrics are built from, over every round a rig ran.
type tally struct {
	ops                                      int64
	sendsRouted, cacheUpdates, firSent, held uint64
	stealHits, stealMisses, paceStalls, idle uint64
	retries, dupsFiltered, deadLetters       uint64
	netSent, netStalls, batchedPkts          uint64
	wireFrames, wireBytes                    uint64
	firRepair, stealWait, flushOcc           hist.H
	virtUS                                   float64
}

// addMachine adds a stopped machine's counters and reports whether it
// had dead letters or an exhausted retry budget, which fails the round.
func (t *tally) addMachine(m *core.Machine) (unhealthy bool) {
	s := m.Stats().Total
	t.sendsRouted += s.SendsRouted
	t.cacheUpdates += s.CacheUpdates
	t.firSent += s.FIRSent
	t.held += s.HeldMessages
	t.stealHits += s.StealHits
	t.stealMisses += s.StealMisses
	t.paceStalls += s.PaceStalls
	t.idle += s.IdleParks
	t.retries += s.Retries
	t.dupsFiltered += s.DupsFiltered
	t.deadLetters += s.DeadLetters
	t.netSent += s.Net.Sent
	t.netStalls += s.Net.SendStalls
	t.batchedPkts += s.Net.BatchedPkts
	t.firRepair.Merge(&s.FIRRepair)
	t.stealWait.Merge(&s.StealWait)
	t.flushOcc.Merge(&s.Net.FlushOcc)
	return s.DeadLetters > 0 || m.RetryExhausted()
}

func (t *tally) addWire(s amnet.TransportStats) {
	t.wireFrames += s.WireSent
	t.wireBytes += s.WireBytesOut
}

// unhealthyNow is addMachine's check for a machine that is still running.
func unhealthyNow(m *core.Machine) bool {
	return m.StatsNow().Total.DeadLetters > 0 || m.RetryExhausted()
}

// passOpts selects how a pass runs the rounds of one rig.
type passOpts struct {
	warm      int     // untimed rounds after open; with open and close they are the set-up
	minRounds int     // timed rounds, at least
	seconds   float64 // keep starting rounds until the rig's window is this long
	gcOn      bool    // leave the collector at GOGC=100 inside rounds
}

// roundRec is what a pass keeps of one timed round.
type roundRec struct {
	sec, ops             float64
	allocs, bytes, cpuUS float64 // per operation
	latLo, latHi         int     // the round's digest is pass.lat[latLo:latHi]
}

// pass accumulates the timed rounds of one or more rigs of a workload,
// under the noise rules (README.md).
type pass struct {
	rounds      []roundRec
	lat         []float64 // every round's latency digest, back to back
	setupSec    []float64 // per rig: open, warm rounds and close
	heapMB      []float64 // per rig: after timed round minRounds, see rig
	ops, failed int64
	virtUS      float64
	counters    tally // of the last rig
	next        int   // number of the next round, which seeds it
}

// newPass allocates what a window appends to, so that the harness grows
// nothing between a rig's heap baseline and its heap reading.
func newPass() *pass {
	return &pass{
		rounds: make([]roundRec, 0, 1<<14),
		lat:    make([]float64, 0, 1<<20),
	}
}

const latPerRound = 256

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rig runs one rig of w from open to close: warm rounds, then a window of
// identical fixed-work rounds with no collector inside a round and one
// collection after it, outside the timer.  The rig's set-up time is what
// open, the warm rounds and close took.  Its heap figure is HeapAlloc
// after the collection that follows timed round minRounds, less HeapAlloc
// before open: a fixed round, because a kept machine grows by a group of
// actors a round and a window fits more rounds on a faster host.
func (p *pass) rig(w *workload, e *env, o passOpts) error {
	gcPercent := -1
	if o.gcOn {
		gcPercent = 100
	}
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	var ms runtime.MemStats
	// Twice: what an earlier rig left in sync.Pools and behind finalizers
	// survives one collection.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	setup0 := time.Now()
	e.spans.begin("open")
	g, err := w.open(e)
	e.spans.end()
	if err != nil {
		return fmt.Errorf("%s: open: %w", w.name, err)
	}
	closed := false
	defer func() {
		if !closed {
			g.close()
		}
	}()
	for i := 0; i < o.warm; i, p.next = i+1, p.next+1 {
		if _, err := g.round(p.next); err != nil {
			return fmt.Errorf("%s: warm round %d: %w", w.name, p.next, err)
		}
		runtime.GC()
	}
	setup := time.Since(setup0)

	runtime.ReadMemStats(&ms)
	start := time.Now()
	for n := 1; n <= o.minRounds || time.Since(start).Seconds() < o.seconds; n, p.next = n+1, p.next+1 {
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		e.spans.begin("round")
		cpu0, t0 := cpuSeconds(), time.Now()
		out, err := g.round(p.next)
		sec, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		e.spans.end()
		if err != nil {
			return fmt.Errorf("%s: round %d: %w", w.name, p.next, err)
		}
		runtime.ReadMemStats(&ms)
		ops := float64(out.ops)
		p.ops += out.ops
		p.failed += out.failed
		p.virtUS += out.virtUS
		lo := len(p.lat)
		p.lat = digest(p.lat, out.lat, latPerRound) // sorts out.lat
		p.rounds = append(p.rounds, roundRec{
			sec: sec, ops: ops,
			allocs: float64(ms.Mallocs-mallocs) / ops,
			bytes:  float64(ms.TotalAlloc-bytes) / ops,
			cpuUS:  cpu * 1e6 / ops,
			latLo:  lo, latHi: len(p.lat),
		})
		e.spans.begin("gc")
		runtime.GC()
		e.spans.end()
		runtime.ReadMemStats(&ms)
		if n == o.minRounds {
			p.heapMB = append(p.heapMB, (float64(ms.HeapAlloc)-float64(base))/(1<<20))
		}
	}
	close0 := time.Now()
	e.spans.begin("close")
	p.counters = g.close()
	e.spans.end()
	closed = true
	p.setupSec = append(p.setupSec, (setup + time.Since(close0)).Seconds())
	return nil
}

// runPass is a pass over one rig.
func runPass(w *workload, e *env, o passOpts) (*pass, error) {
	p := newPass()
	return p, p.rig(w, e, o)
}

// column extracts one figure of every round.
func (p *pass) column(f func(*roundRec) float64) []float64 {
	xs := make([]float64, len(p.rounds))
	for i := range p.rounds {
		xs[i] = f(&p.rounds[i])
	}
	return xs
}

func (p *pass) roundSec() []float64 {
	return p.column(func(r *roundRec) float64 { return r.sec })
}

// Interference only ever slows a fixed-work round, so the fastest rounds
// of a window are the ones the host left alone, and the two timing metrics
// rest on them (noise rule 2).  Throughput takes the few fastest, which a
// slow spell reaches last.  Latency takes more of them: on nomad a round's
// latency has little to do with how fast the round was, and the p50 of
// the three fastest alone moved by a tenth from run to run.
const (
	bestRounds = 3   // ops_per_s is the median over this many
	keptShare  = 0.2 // lat_p50_us pools the samples of this share
)

// fastest returns the n fastest rounds, fastest first.
func (p *pass) fastest(n int) []roundRec {
	rs := append([]roundRec(nil), p.rounds...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].sec < rs[j].sec })
	return rs[:min(n, len(rs))]
}

// kept is the fastest keptShare of the rounds.
func (p *pass) kept() []roundRec {
	return p.fastest(int(math.Ceil(keptShare * float64(len(p.rounds)))))
}

// opsPerSec is the median throughput of the bestRounds fastest rounds.
func (p *pass) opsPerSec() float64 {
	var xs []float64
	for _, r := range p.fastest(bestRounds) {
		xs = append(xs, r.ops/r.sec)
	}
	return median(xs)
}

// latencies pools the digests of rounds, sorted.
func (p *pass) latencies(rounds []roundRec) []float64 {
	var pool []float64
	for _, r := range rounds {
		pool = append(pool, p.lat[r.latLo:r.latHi]...)
	}
	sort.Float64s(pool)
	return pool
}
