package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hal/internal/amnet/sock"
	"hal/internal/core"
)

// machineConfig is the Config every workload starts from.
func machineConfig(e *env, nodes int) core.Config {
	cfg := core.DefaultConfig(nodes)
	cfg.Seed = e.seed
	cfg.Out = io.Discard
	cfg.StallTimeout = 20 * time.Second
	cfg.TraceBuffer = e.traceBuf
	return cfg
}

// startMachine builds a machine, registers its types and starts it, with
// a span around each call into core.
func startMachine(e *env, cfg core.Config, register func(*core.Machine)) (*core.Machine, error) {
	e.spans.begin("core.NewMachine")
	m, err := core.NewMachine(cfg)
	e.spans.end()
	if err != nil {
		return nil, err
	}
	register(m)
	e.spans.begin("core.Start")
	err = m.Start()
	e.spans.end()
	return m, err
}

// runProgram launches root on a started machine and waits for it to
// quiesce, returning the program's result and its makespan.
func runProgram(e *env, m *core.Machine, root func(*core.Context)) (any, time.Duration, error) {
	t0 := time.Now()
	e.spans.begin("core.Launch")
	prog, err := m.Launch(root)
	e.spans.end()
	if err != nil {
		return nil, 0, err
	}
	e.spans.begin("core.Wait")
	v, err := prog.Wait()
	e.spans.end()
	return v, time.Since(t0), err
}

func shutdown(e *env, m *core.Machine) {
	e.spans.begin("core.Shutdown")
	m.Shutdown()
	e.spans.end()
}

// virtUS is the machine's virtual makespan so far, in microseconds.
func virtUS(ms ...*core.Machine) float64 {
	v := 0.0
	for _, m := range ms {
		v = max(v, float64(m.VirtualTime())/float64(time.Microsecond))
	}
	return v
}

// sockSeq makes socket paths unique within the process.
var sockSeq atomic.Int64

// pair is two one-node machines in this process joined by a unix socket:
// the leader hosts node 0, the worker node 1.  Everything but the OS
// process boundary is the production multi-process path.
type pair struct {
	e              *env
	leader, worker *core.Machine
	lt, wt         *sock.Transport
	path           string
}

// sockPair performs the leader/worker handshake of a two-process,
// two-node mesh over a unix socket at path, both ends in this process.
func sockPair(path string) (lt, wt *sock.Transport, err error) {
	var wg sync.WaitGroup
	var lerr, werr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		lt, _, lerr = sock.Listen(sock.LeaderConfig{Network: "unix", Addr: path, Workers: 1, Nodes: 2})
	}()
	go func() {
		defer wg.Done()
		wt, _, _, werr = sock.Join("unix", path)
	}()
	wg.Wait()
	if lerr != nil || werr != nil {
		for _, t := range []*sock.Transport{lt, wt} {
			if t != nil {
				t.Close()
			}
		}
		return nil, nil, fmt.Errorf("sock handshake: leader %v, worker %v", lerr, werr)
	}
	return lt, wt, nil
}

// sockPath is a fresh socket path under the run's output directory.  It
// is relative, which keeps sun_path short however deep the checkout is.
func sockPath(e *env) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(e.outDir, fmt.Sprintf("hal-%d-%d.sock", os.Getpid(), sockSeq.Add(1))), nil
}

// openPair performs the sock handshake and starts both machines.
// register must install the same types in the same order on each.
func openPair(e *env, register func(*core.Machine)) (*pair, error) {
	path, err := sockPath(e)
	if err != nil {
		return nil, err
	}
	p := &pair{e: e, path: path}
	e.spans.begin("sock.Listen+Join")
	p.lt, p.wt, err = sockPair(path)
	e.spans.end()
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	for i, t := range []*sock.Transport{p.lt, p.wt} {
		cfg := machineConfig(e, 2)
		cfg.Dist = &core.DistConfig{Transport: t, Leader: i == 0, Lo: i, Hi: i + 1}
		m, err := startMachine(e, cfg, register)
		if i == 0 {
			p.leader = m
		} else {
			p.worker = m
		}
		if err != nil {
			p.close(new(tally))
			return nil, err
		}
	}
	return p, nil
}

// close runs the production teardown order — the leader's Shutdown tells
// the worker, which observes it through DistWait; then the sockets close —
// and adds both machines' and both transports' counters to t.
func (p *pair) close(t *tally) {
	if p.leader != nil {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if p.worker != nil {
				_ = p.worker.DistWait() // a shutdown error is already a failed round
				p.worker.Shutdown()
			}
		}()
		shutdown(p.e, p.leader)
		<-done
		t.addMachine(p.leader)
		if p.worker != nil {
			t.addMachine(p.worker)
		}
	}
	for _, tr := range []*sock.Transport{p.lt, p.wt} {
		if tr != nil {
			t.addWire(tr.TransportStats())
			tr.Close()
		}
	}
	os.Remove(p.path)
}
