package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hal/internal/amnet"
	"hal/internal/amnet/sock"
)

// Multi-process machines, exercised without multiple processes: each
// "process" is a Machine + sock.Transport pair inside this test binary,
// talking over real unix-domain sockets in a temp directory.  Everything
// but the OS process boundary is the production path — handshake, frame
// codec, payload codec, the link protocol, the termination control plane
// — and the race detector sees all sides at once.

// distRig is one multi-process machine: machines[0] is the leader.
type distRig struct {
	machines []*Machine
	trans    []*sock.Transport
}

// startDistRig boots a procs-process machine over unix sockets.
// configure (optional) tweaks each process's Config identically;
// register installs behavior types and must register the same types in
// the same order on every machine.
func startDistRig(t *testing.T, nodes, procs int, configure func(*Config), register func(*Machine)) *distRig {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "hal.sock")

	trans := make([]*sock.Transport, procs)
	spans := make([][2]int, procs)
	var wg sync.WaitGroup
	errs := make([]error, procs)
	wg.Add(procs)
	go func() {
		defer wg.Done()
		lt, reg, err := sock.Listen(sock.LeaderConfig{
			Network: "unix", Addr: addr, Workers: procs - 1, Nodes: nodes,
		})
		if err != nil {
			errs[0] = err
			return
		}
		lo, hi := reg.SpanOf(0)
		trans[0], spans[0] = lt, [2]int{int(lo), int(hi)}
	}()
	for i := 1; i < procs; i++ {
		go func(i int) {
			defer wg.Done()
			wt, reg, _, err := sock.Join("unix", addr)
			if err != nil {
				errs[i] = err
				return
			}
			lo, hi := reg.SpanOf(wt.Self())
			trans[wt.Self()], spans[wt.Self()] = wt, [2]int{int(lo), int(hi)}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d handshake: %v", i, err)
		}
	}

	rig := &distRig{trans: trans, machines: make([]*Machine, procs)}
	t.Cleanup(rig.close)
	for i := 0; i < procs; i++ {
		cfg := DefaultConfig(nodes)
		cfg.Out = io.Discard
		cfg.StallTimeout = 10 * time.Second
		if configure != nil {
			configure(&cfg)
		}
		cfg.Dist = &DistConfig{
			Transport: trans[i],
			Leader:    i == 0,
			Lo:        spans[i][0],
			Hi:        spans[i][1],
		}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("process %d NewMachine: %v", i, err)
		}
		if register != nil {
			register(m)
		}
		rig.machines[i] = m
	}
	for i, m := range rig.machines {
		if err := m.Start(); err != nil {
			t.Fatalf("process %d Start: %v", i, err)
		}
	}
	return rig
}

func (r *distRig) leader() *Machine { return r.machines[0] }

// shutdown runs the production teardown order: leader Shutdown
// broadcasts, workers observe it via DistWait, everyone closes.
func (r *distRig) shutdown(t *testing.T) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 1; i < len(r.machines); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := r.machines[i].DistWait(); err != nil {
				t.Errorf("process %d DistWait: %v", i, err)
			}
			r.machines[i].Shutdown()
		}(i)
	}
	r.machines[0].Shutdown()
	wg.Wait()
}

func (r *distRig) close() {
	for _, m := range r.machines {
		if m != nil {
			m.Shutdown()
		}
	}
	for _, tr := range r.trans {
		if tr != nil {
			tr.Close()
		}
	}
}

// --- behaviors shared by the dist tests ----------------------------------

// distCounter replies with its node id; used to prove every node —
// resident or not — serves creations and requests.
type distCounter struct{}

func (distCounter) Receive(ctx *Context, msg *Message) {
	ctx.Reply(msg, ctx.Node())
	ctx.Die()
}

// distHopper migrates to a target node and then replies from there.
type distHopper struct{ Target int }

func (h *distHopper) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case 1: // hop
		ctx.Migrate(h.Target)
	case 2: // where
		ctx.Reply(msg, ctx.Node())
		ctx.Die()
	}
}

func init() {
	gob.Register(&distHopper{})
}

func registerDistTypes(m *Machine) {
	m.RegisterType("dist-counter", func(args []any) Behavior { return distCounter{} })
	m.RegisterType("dist-hopper", func(args []any) Behavior {
		return &distHopper{Target: args[0].(int)}
	})
}

// --- tests ---------------------------------------------------------------

// TestDistSpawnEverywhere creates one actor per node from the leader and
// sums the replies: cross-process hCreate, hAliasBind, hReply.
func TestDistSpawnEverywhere(t *testing.T) {
	const nodes = 8
	rig := startDistRig(t, nodes, 3, nil, registerDistTypes)
	typ := rig.leader().TypeByName("dist-counter")
	v, err := runOn(rig, t, func(ctx *Context) {
		j := ctx.NewJoin(nodes, func(ctx *Context, vs []any) {
			sum := 0
			for _, v := range vs {
				sum += v.(int)
			}
			ctx.Exit(sum)
		})
		for i := 0; i < nodes; i++ {
			a := ctx.NewOn(i, typ)
			ctx.Request(a, 1, j, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := nodes * (nodes - 1) / 2
	if v != want {
		t.Fatalf("sum of node ids = %v, want %d", v, want)
	}
	rig.shutdown(t)
}

// TestDistMigrateAcross migrates an actor from the leader's span into a
// worker's span and back, then asks it where it lives: cross-process
// hMigrate (a gob behavior), cache repair, and delivery to the moved
// actor.
func TestDistMigrateAcross(t *testing.T) {
	const nodes = 6
	rig := startDistRig(t, nodes, 2, nil, registerDistTypes)
	typ := rig.leader().TypeByName("dist-hopper")
	v, err := runOn(rig, t, func(ctx *Context) {
		a := ctx.NewOn(0, typ, nodes-1) // lives on 0, will hop to the far span
		j := ctx.NewJoin(1, func(ctx *Context, vs []any) { ctx.Exit(vs[0]) })
		ctx.Send(a, 1)          // migrate
		ctx.Request(a, 2, j, 0) // chases the actor through the repair path
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nodes-1 {
		t.Fatalf("hopper settled on node %v, want %d", v, nodes-1)
	}
	rig.shutdown(t)
}

// TestDistGroupBroadcast creates a group spanning every process and
// broadcasts to it: cross-process hGroupCreate and hGroupCast along the
// spanning tree, plus Group's gob round trip inside reply values.
func TestDistGroupBroadcast(t *testing.T) {
	const nodes = 6
	rig := startDistRig(t, nodes, 3, nil, func(m *Machine) {
		m.RegisterType("member", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				ctx.Reply(msg, ctx.Node())
			})
		})
	})
	typ := rig.leader().TypeByName("member")
	v, err := runOn(rig, t, func(ctx *Context) {
		g := ctx.NewGroup(typ, nodes, 0)
		j := ctx.NewJoin(nodes, func(ctx *Context, vs []any) {
			sum := 0
			for _, v := range vs {
				sum += v.(int)
			}
			ctx.Exit(sum)
		})
		for i := 0; i < nodes; i++ {
			ctx.Request(g.Member(i), 1, j, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := nodes * (nodes - 1) / 2
	if v != want {
		t.Fatalf("sum of member nodes = %v, want %d", v, want)
	}
	rig.shutdown(t)
}

// TestDistBulkData sends a beyond-segment bulk payload to a worker node
// and gets its sum back: the single-frame wire bulk path replacing the
// three-phase in-memory protocol.
func TestDistBulkData(t *testing.T) {
	const nodes = 4
	rig := startDistRig(t, nodes, 2, nil, func(m *Machine) {
		m.RegisterType("summer", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				sum := 0.0
				for _, x := range msg.Data {
					sum += x
				}
				ctx.Reply(msg, sum)
				ctx.Die()
			})
		})
	})
	typ := rig.leader().TypeByName("summer")
	const words = 4096 // several segments
	v, err := runOn(rig, t, func(ctx *Context) {
		data := make([]float64, words)
		for i := range data {
			data[i] = float64(i)
		}
		a := ctx.NewOn(nodes-1, typ) // far span: crosses the wire
		j := ctx.NewJoin(1, func(ctx *Context, vs []any) { ctx.Exit(vs[0]) })
		ctx.RequestData(a, 1, j, 0, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(words*(words-1)) / 2
	if v != want {
		t.Fatalf("sum = %v, want %v", v, want)
	}
	rig.shutdown(t)
}

// TestDistExitNow proves a worker-side ExitNow forces completion from
// the leader's point of view without waiting for quiescence.
func TestDistExitNow(t *testing.T) {
	const nodes = 4
	rig := startDistRig(t, nodes, 2, nil, func(m *Machine) {
		m.RegisterType("quitter", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				ctx.ExitNow("done early")
			})
		})
	})
	typ := rig.leader().TypeByName("quitter")
	v, err := runOn(rig, t, func(ctx *Context) {
		ctx.Send(ctx.NewOn(nodes-1, typ), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != "done early" {
		t.Fatalf("result = %v, want %q", v, "done early")
	}
	rig.shutdown(t)
}

// TestDistChaosBounce runs the spawn-everywhere workload while killing
// every wire link mid-run.  The kernel's reliable layer is off (no
// FaultPlan): the socket links alone must replay what each cut took and
// drop what they replay twice, so the runs converge to the right answer
// with not one kernel retry, dedup or dead letter.
func TestDistChaosBounce(t *testing.T) {
	const nodes = 8
	rig := startDistRig(t, nodes, 3, func(cfg *Config) {
		cfg.StallTimeout = 30 * time.Second
	}, registerDistTypes)
	typ := rig.leader().TypeByName("dist-counter")

	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChaos:
				return
			case <-time.After(5 * time.Millisecond):
			}
			// Bounce a different link each round, on both sides.
			tr := rig.trans[i%len(rig.trans)]
			tr.Bounce((i + 1) % len(rig.trans))
		}
	}()

	const rounds = 20
	total := 0
	for r := 0; r < rounds; r++ {
		v, err := runOn(rig, t, func(ctx *Context) {
			j := ctx.NewJoin(nodes, func(ctx *Context, vs []any) {
				sum := 0
				for _, v := range vs {
					sum += v.(int)
				}
				ctx.Exit(sum)
			})
			for i := 0; i < nodes; i++ {
				ctx.Request(ctx.NewOn(i, typ), 1, j, i)
			}
		})
		if err != nil {
			close(stopChaos)
			chaosWG.Wait()
			t.Fatalf("round %d: %v", r, err)
		}
		total += v.(int)
	}
	close(stopChaos)
	chaosWG.Wait()
	want := rounds * nodes * (nodes - 1) / 2
	if total != want {
		t.Fatalf("chaos total = %d, want %d", total, want)
	}
	rig.shutdown(t)
	redials := uint64(0)
	for i, m := range rig.machines {
		if m.relOn {
			t.Errorf("process %d: the reliable layer is on without a FaultPlan", i)
		}
		st := m.Stats()
		if tot := st.Total; tot.Retries != 0 || tot.DupsFiltered != 0 || tot.DeadLetters != 0 {
			t.Errorf("process %d: retries=%d dedup=%d deadletters=%d, want all 0",
				i, tot.Retries, tot.DupsFiltered, tot.DeadLetters)
		}
		if st.Wire.WireDropped != 0 {
			t.Errorf("process %d: WireDropped = %d, want 0", i, st.Wire.WireDropped)
		}
		redials += st.Wire.Redials
	}
	if redials == 0 {
		t.Error("the chaos never bounced a link")
	}
}

// TestDistNoReliableLayerWithoutFaults pins which machines run
// reliable.go: one with a FaultPlan, spanning processes or not, and no
// other.
func TestDistNoReliableLayerWithoutFaults(t *testing.T) {
	for _, faults := range []*amnet.FaultPlan{nil, {Drop: 0.01}} {
		rig := startDistRig(t, 4, 2, func(cfg *Config) { cfg.Faults = faults }, registerDistTypes)
		for i, m := range rig.machines {
			if m.relOn != (faults != nil) {
				t.Errorf("Faults=%v, process %d: relOn = %v", faults != nil, i, m.relOn)
			}
		}
		rig.shutdown(t)
	}
}

// TestDistPeerGoneStalls closes a worker's transport in the middle of a
// program.  Nothing retries and nothing dead-letters: the leader's links
// hold what they could not deliver, its stall monitor ends the run with
// ErrStalled, and the flight record shows the link down with frames
// unacknowledged.
func TestDistPeerGoneStalls(t *testing.T) {
	const nodes = 4
	flight := filepath.Join(t.TempDir(), "flight.txt")
	rig := startDistRig(t, nodes, 2, func(cfg *Config) {
		cfg.StallTimeout = 100 * time.Millisecond
		cfg.FlightPath = flight
	}, func(m *Machine) {
		m.RegisterType("pinger", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				ctx.Send(msg.Addr(0), 1, ctx.Self()) // back and forth, forever
			})
		})
	})
	typ := rig.leader().TypeByName("pinger")
	prog, err := rig.leader().Launch(func(ctx *Context) {
		near, far := ctx.NewOn(0, typ), ctx.NewOn(nodes-1, typ)
		ctx.Send(far, 1, near)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rig.trans[1].TransportStats().WireRecvd < 100 {
		time.Sleep(time.Millisecond) // the ping-pong is crossing the wire
	}
	rig.trans[1].Close()

	if _, err := prog.Wait(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Wait returned %v, want ErrStalled", err)
	}
	rec, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("the stall left no flight record: %v", err)
	}
	if !strings.Contains(string(rec), "link to process 1: down") {
		t.Errorf("flight record does not show the dead link:\n%s", rec)
	}
	st := rig.leader().StatsNow()
	if tot := st.Total; tot.Retries != 0 || tot.DeadLetters != 0 {
		t.Errorf("retries=%d deadletters=%d on the leader, want 0: nothing above the link retries", tot.Retries, tot.DeadLetters)
	}
	rig.trans[0].Close() // or the leader's Shutdown waits out its bye timeout on a worker that cannot answer
}

// TestDistFaultPlan layers the deterministic fault injector on top of
// the socket transport: a packet that crossed the wire passes the same
// per-packet fault filter at Inject as ring traffic does at receive, so
// drop/dup/delay plans and connection loss compose, and the reliable
// layer recovers both.
func TestDistFaultPlan(t *testing.T) {
	const nodes = 6
	rig := startDistRig(t, nodes, 2, func(cfg *Config) {
		cfg.Faults = &amnet.FaultPlan{Drop: 0.03, Dup: 0.03, Delay: 0.05}
		cfg.StallTimeout = 30 * time.Second
	}, registerDistTypes)
	typ := rig.leader().TypeByName("dist-counter")
	const rounds = 5
	for r := 0; r < rounds; r++ {
		v, err := runOn(rig, t, func(ctx *Context) {
			j := ctx.NewJoin(nodes, func(ctx *Context, vs []any) {
				sum := 0
				for _, v := range vs {
					sum += v.(int)
				}
				ctx.Exit(sum)
			})
			for i := 0; i < nodes; i++ {
				ctx.Request(ctx.NewOn(i, typ), 1, j, i)
			}
		})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if want := nodes * (nodes - 1) / 2; v != want {
			t.Fatalf("round %d: sum = %v, want %d", r, v, want)
		}
	}
	rig.shutdown(t)
}

// TestDistWorkerLaunchRefused pins the leader-only program-load rule.
func TestDistWorkerLaunchRefused(t *testing.T) {
	rig := startDistRig(t, 4, 2, nil, registerDistTypes)
	_, err := rig.machines[1].Launch(func(ctx *Context) {})
	if err == nil {
		t.Fatal("worker Launch succeeded, want refusal")
	}
	rig.shutdown(t)
}

// TestDistConfigValidation pins DistConfig's invariants without booting
// any transport.
func TestDistConfigValidation(t *testing.T) {
	tr := struct{ amnet.Transport }{} // validation only asks whether one is set, and calls nothing on it
	cases := []struct {
		name string
		d    DistConfig
		lb   bool
	}{
		{name: "nil transport", d: DistConfig{Leader: true, Lo: 0, Hi: 2}},
		{name: "empty span", d: DistConfig{Transport: tr, Leader: true, Lo: 2, Hi: 2}},
		{name: "span past nodes", d: DistConfig{Transport: tr, Leader: false, Lo: 2, Hi: 9}},
		{name: "leader without node 0", d: DistConfig{Transport: tr, Leader: true, Lo: 2, Hi: 4}},
		{name: "node 0 without leader", d: DistConfig{Transport: tr, Leader: false, Lo: 0, Hi: 2}},
		{name: "load balance", d: DistConfig{Transport: tr, Leader: true, Lo: 0, Hi: 2}, lb: true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(4)
		cfg.LoadBalance = tc.lb
		d := tc.d
		cfg.Dist = &d
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("%s: NewMachine succeeded, want error", tc.name)
		}
	}
}

// runOn launches root on the rig's leader and waits for the result.
func runOn(rig *distRig, t *testing.T, root func(ctx *Context)) (any, error) {
	t.Helper()
	prog, err := rig.leader().Launch(root)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	return prog.Wait()
}
