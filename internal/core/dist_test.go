package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
func startDistRig(t testing.TB, nodes, procs int, configure func(*Config), register func(*Machine)) *distRig {
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
		dumpFlightOnFailure(t, m)
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
func (r *distRig) shutdown(t testing.TB) {
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

// distSleeper never enables a message: one sent to it stays pending, so
// its program never quiesces.
type distSleeper struct{}

func (distSleeper) Receive(*Context, *Message) {}
func (distSleeper) Enabled(Selector) bool      { return false }

func init() {
	gob.Register(&distHopper{})
}

func registerDistTypes(m *Machine) {
	m.RegisterType("dist-counter", func(args []any) Behavior { return distCounter{} })
	m.RegisterType("dist-hopper", func(args []any) Behavior {
		return &distHopper{Target: args[0].(int)}
	})
	m.RegisterType("dist-sleeper", func(args []any) Behavior { return distSleeper{} })
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

// TestDistBulkData sends four beyond-segment payloads at once from the
// leader to one worker node, three rounds on one machine, under each flow
// mode and with and without a fault plan.  The three-phase protocol runs
// across the socket: under one-active flow control the worker queues
// requests behind its single grant, and a cut link replays segments like
// any other frame.
func TestDistBulkData(t *testing.T) {
	const nodes, words, xfers, rounds = 4, 4096, 4, 3
	for _, flow := range []amnet.FlowMode{amnet.FlowOneActive, amnet.FlowEager} {
		for _, faulted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/faults=%v", flow, faulted), func(t *testing.T) {
				rig := startDistRig(t, nodes, 2, func(cfg *Config) {
					cfg.Flow = flow
					if faulted {
						cfg.Faults = &amnet.FaultPlan{Cut: 0.1, PauseEvery: time.Millisecond}
						cfg.StallTimeout = 30 * time.Second
					}
				}, func(m *Machine) {
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
				for r := 0; r < rounds; r++ {
					v, err := runOn(rig, t, func(ctx *Context) {
						j := ctx.NewJoin(xfers, func(ctx *Context, vs []any) {
							sum := 0.0
							for _, v := range vs {
								sum += v.(float64)
							}
							ctx.Exit(sum)
						})
						for i := 0; i < xfers; i++ {
							data := make([]float64, words)
							for k := range data {
								data[k] = float64(k)
							}
							// Far span: every transfer crosses the wire.
							ctx.RequestData(ctx.NewOn(nodes-1, typ), 1, j, i, data)
						}
					})
					if err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
					if want := float64(xfers * words * (words - 1) / 2); v != want {
						t.Fatalf("round %d: sum = %v, want %v", r, v, want)
					}
				}
				rig.shutdown(t)
				var tot NodeStats
				var cuts uint64
				for _, m := range rig.machines {
					st := m.Stats()
					tot.add(st.Total)
					cuts += st.Wire.FaultCuts
				}
				if want := uint64(xfers * rounds); tot.Net.BulkSends != want || tot.Net.BulkRecvs != want {
					t.Errorf("BulkSends=%d BulkRecvs=%d, want %d each", tot.Net.BulkSends, tot.Net.BulkRecvs, want)
				}
				if flow == amnet.FlowOneActive && tot.Net.BulkQueued == 0 {
					t.Error("no request waited for the one-active grant")
				}
				if tot.DeadLetters != 0 {
					t.Errorf("deadletters=%d, want 0", tot.DeadLetters)
				}
				if faulted && cuts == 0 {
					t.Error("the plan never cut a link")
				}
			})
		}
	}
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

// TestDistChaosBounce runs the spawn-everywhere workload on three
// processes whose FaultPlan keeps cutting every wire link, in both
// directions, on about one frame in sixteen.  The socket links alone
// replay what each cut took and drop what they replay twice, so the runs
// converge to the right answer with not one dead letter.
func TestDistChaosBounce(t *testing.T) {
	const nodes = 8
	rig := startDistRig(t, nodes, 3, func(cfg *Config) {
		cfg.Faults = &amnet.FaultPlan{Cut: 0.06}
		cfg.StallTimeout = 30 * time.Second
	}, registerDistTypes)
	typ := rig.leader().TypeByName("dist-counter")

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
			t.Fatalf("round %d: %v", r, err)
		}
		total += v.(int)
	}
	want := rounds * nodes * (nodes - 1) / 2
	if total != want {
		t.Fatalf("chaos total = %d, want %d", total, want)
	}
	rig.shutdown(t)
	var cuts, redials uint64
	for i, m := range rig.machines {
		st := m.Stats()
		if st.Total.DeadLetters != 0 {
			t.Errorf("process %d: deadletters=%d, want 0", i, st.Total.DeadLetters)
		}
		if st.Wire.WireDropped != 0 {
			t.Errorf("process %d: WireDropped = %d, want 0", i, st.Wire.WireDropped)
		}
		cuts += st.Wire.FaultCuts
		redials += st.Wire.Redials
	}
	if cuts == 0 || redials == 0 {
		t.Errorf("the chaos cut %d links and redialed %d times, want both above 0", cuts, redials)
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
	if n := st.Total.DeadLetters; n != 0 {
		t.Errorf("deadletters=%d on the leader, want 0: nothing above the link gives up", n)
	}
	rig.trans[0].Close() // or the leader's Shutdown waits out its bye timeout on a worker that cannot answer
}

// TestDistStableCountersStall: a program whose one outstanding unit
// waits forever on a worker changes no process's share, so no share check
// starts a wave; the leader's heartbeat waves must still find the
// counters stable and end the run as stalled, and tell the worker so.
func TestDistStableCountersStall(t *testing.T) {
	const nodes = 4
	rig := startDistRig(t, nodes, 2, func(cfg *Config) { cfg.StallTimeout = 100 * time.Millisecond }, registerDistTypes)
	sleeper := rig.leader().TypeByName("dist-sleeper")
	prog, err := rig.leader().Launch(func(ctx *Context) { ctx.Send(ctx.NewOn(nodes-1, sleeper), 1) })
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := prog.Wait()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrStalled) || !strings.Contains(err.Error(), "stable") {
			t.Fatalf("Wait returned %v, want ErrStalled for stable counters", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no stall verdict within 10 s of a 100 ms stall timeout")
	}
	if err := rig.machines[1].DistWait(); !errors.Is(err, ErrStalled) {
		t.Errorf("worker DistWait returned %v, want ErrStalled", err)
	}
}

// TestDistFaultPlan runs a FaultPlan on a machine spanning processes.
// Its cuts are of the socket links, not of the endpoints' hold queues;
// the links' replay recovers them (nothing is dead-lettered), and its
// pause windows still pause the nodes.
func TestDistFaultPlan(t *testing.T) {
	const nodes = 6
	rig := startDistRig(t, nodes, 2, func(cfg *Config) {
		cfg.Faults = &amnet.FaultPlan{Cut: 0.11, PauseEvery: time.Millisecond}
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
	var cuts, pauses uint64
	for i, m := range rig.machines {
		st := m.Stats()
		if tot := st.Total; tot.DeadLetters != 0 || tot.Net.Cuts != 0 {
			t.Errorf("process %d: deadletters=%d endpoint cuts=%d, want both 0", i, tot.DeadLetters, tot.Net.Cuts)
		}
		cuts += st.Wire.FaultCuts
		pauses += st.Total.Net.Pauses
	}
	if cuts == 0 {
		t.Error("the plan never cut a link")
	}
	if pauses == 0 {
		t.Error("the plan never paused a node")
	}
}

// TestDistNoEarlyFinish bounces one token between the two processes of a
// machine whose links keep being cut and whose nodes keep pausing, so
// exactly one unit of the program is always in flight — often held in a
// link's replay, or in a paused node's inbox, while a wave is taken.  The
// waves confirm back-to-back, so the four-counter rule is what stands
// between a balanced snapshot and an early finish: Wait must return after
// the last bounce and not before it.
func TestDistNoEarlyFinish(t *testing.T) {
	const nodes, bounces = 4, 500
	var seen atomic.Int64
	rig := startDistRig(t, nodes, 2, func(cfg *Config) {
		cfg.Faults = &amnet.FaultPlan{Cut: 0.1, PauseEvery: time.Millisecond}
		cfg.StallTimeout = 30 * time.Second
	}, func(m *Machine) {
		m.RegisterType("bouncer", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				n := seen.Add(1)
				if left := msg.Int(1); left > 1 {
					ctx.Send(msg.Addr(0), 1, ctx.Self(), left-1)
					return
				}
				ctx.Exit(n)
			})
		})
	})
	typ := rig.leader().TypeByName("bouncer")
	for round := 0; round < 3; round++ {
		seen.Store(0)
		v, err := runOn(rig, t, func(ctx *Context) {
			near, far := ctx.NewOn(0, typ), ctx.NewOn(nodes-1, typ)
			ctx.Send(far, 1, near, bounces)
		})
		if got := seen.Load(); got != bounces {
			t.Fatalf("round %d: Wait returned after %d of %d bounces (err %v)", round, got, bounces, err)
		}
		if err != nil || v != int64(bounces) {
			t.Fatalf("round %d: result %v, %v; want %d", round, v, err, bounces)
		}
	}
	rig.shutdown(t)
	var cuts uint64
	for i, m := range rig.machines {
		st := m.Stats()
		if st.Total.DeadLetters != 0 {
			t.Errorf("process %d: deadletters=%d, want 0", i, st.Total.DeadLetters)
		}
		cuts += st.Wire.FaultCuts
	}
	if cuts == 0 {
		t.Error("the plan never cut a link")
	}
}

// TestDistWaveRule pins the four-counter verdict wave by wave: a program
// finishes only on a second wave whose balanced totals equal the first's,
// a first balanced wave asks for its confirmation at once, and a done
// program is not looked at.
func TestDistWaveRule(t *testing.T) {
	m := bareMachine()
	progs := make([]*Program, 5)
	for i := range progs {
		progs[i] = m.progForWire(uint64(i + 1))
	}
	progs[4].finishProg()
	type tot = map[uint64][2]int64
	waves := []struct {
		totals   tot
		finished []uint64
		confirm  bool
		out      int64
	}{
		// 1 and 2 balance for the first time, 3 has a unit in flight, 4 has
		// not started anywhere, 5 is done.
		{tot{1: {3, 3}, 2: {3, 3}, 3: {2, 1}, 5: {1, 0}}, nil, true, 1},
		// 1 confirms; 2 moved and balances again, so confirms next wave.
		{tot{1: {3, 3}, 2: {4, 4}, 3: {2, 1}}, []uint64{1}, true, 1},
		{tot{2: {4, 4}, 3: {3, 2}}, []uint64{2}, false, 1},
		// Equal but unbalanced totals never finish.
		{tot{3: {3, 2}}, nil, false, 1},
	}
	prev := tot{}
	for i, w := range waves {
		v := judge(progs, prev, w.totals, nil)
		var got []uint64
		for _, p := range v.finished {
			got = append(got, p.id)
			p.finishProg()
		}
		if !slices.Equal(got, w.finished) || v.confirm != w.confirm || v.outstanding != w.out || !v.live {
			t.Errorf("wave %d: finished %v confirm %v outstanding %d live %v; want %v %v %d true",
				i+1, got, v.confirm, v.outstanding, v.live, w.finished, w.confirm, w.out)
		}
		prev = w.totals
	}
}

// TestDistReportCarriesLiveProgramsOnly runs 300 programs, each with a
// creation in the worker's span, to completion beside one program that
// never ends (a token bouncing between the processes).  Afterwards each
// side's counter snapshot, and the report the worker last sent the
// leader, hold that one program and none of the 300: a wave's cost
// follows the programs running, not the programs ever run.
func TestDistReportCarriesLiveProgramsOnly(t *testing.T) {
	const nodes, programs = 4, 300
	rig := startDistRig(t, nodes, 2, nil, func(m *Machine) {
		registerDistTypes(m)
		m.RegisterType("pinger", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				ctx.Send(msg.Addr(0), 1, ctx.Self())
			})
		})
	})
	counter, pinger := rig.leader().TypeByName("dist-counter"), rig.leader().TypeByName("pinger")
	live, err := rig.leader().Launch(func(ctx *Context) {
		ctx.Send(ctx.NewOn(nodes-1, pinger), 1, ctx.NewOn(0, pinger))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < programs; i++ {
		if _, err := runOn(rig, t, func(ctx *Context) {
			j := ctx.NewJoin(1, func(ctx *Context, vs []any) { ctx.Exit(vs[0]) })
			ctx.Request(ctx.NewOn(nodes-1, counter), 1, j, 0)
		}); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}

	only := []uint64{live.id}
	ids := func(pcs []progCountWire) []uint64 {
		var out []uint64
		for _, pc := range pcs {
			out = append(out, pc.ID)
		}
		return out
	}
	lastReport := func() []uint64 {
		d := rig.leader().dist
		d.mu.Lock()
		defer d.mu.Unlock()
		return ids(d.reports[1].Progs)
	}
	if got := tableIDs(rig.leader()); !slices.Equal(got, only) {
		t.Errorf("leader table holds programs %v, want %v", got, only)
	}
	// The worker drops a program when the leader's dcDone lands, and the
	// leader hears of that with its next wave.
	deadline := time.Now().Add(10 * time.Second)
	for !slices.Equal(tableIDs(rig.machines[1]), only) || !slices.Equal(lastReport(), only) {
		if time.Now().After(deadline) {
			t.Fatalf("worker table holds %v and its last report %v, want %v",
				tableIDs(rig.machines[1]), lastReport(), only)
		}
		time.Sleep(time.Millisecond)
	}
	if live.isDone() {
		t.Fatal("the endless program finished")
	}
	rig.shutdown(t)
}

// TestDistFinishesOnTriggersAlone runs programs of every shape on a
// two-process machine with no stall timeout, so that no timer exists on
// either side: each Wait returns only because a share check started the
// waves that finish it.
func TestDistFinishesOnTriggersAlone(t *testing.T) {
	const nodes, bounces = 4, 101
	far := nodes - 1
	rig := startDistRig(t, nodes, 2, func(cfg *Config) { cfg.StallTimeout = -1 }, func(m *Machine) {
		registerDistTypes(m)
		m.RegisterType("bouncer", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				if left := msg.Int(1); left > 1 {
					ctx.Send(msg.Addr(0), 1, ctx.Self(), left-1)
					return
				}
				ctx.Exit(ctx.Node())
			})
		})
		m.RegisterType("quitter", func(args []any) Behavior {
			return BehaviorFunc(func(ctx *Context, msg *Message) {
				if msg.Int(0) == 0 {
					ctx.Exit("exit")
					return
				}
				// A unit that never retires: only ExitNow ends the program.
				ctx.Send(ctx.New(distSleeper{}), 1)
				ctx.ExitNow("exit-now")
			})
		})
	})
	l := rig.leader()
	counter, sleeper := l.TypeByName("dist-counter"), l.TypeByName("dist-sleeper")
	bouncer, quitter := l.TypeByName("bouncer"), l.TypeByName("quitter")
	fanIn := func(ctx *Context, vs []any) {
		sum := 0
		for _, v := range vs {
			sum += v.(int)
		}
		ctx.Exit(sum)
	}
	cases := []struct {
		name string
		root func(ctx *Context)
		want any
	}{
		{"local-only", func(ctx *Context) { ctx.Exit(1) }, 1},
		{"remote-create", func(ctx *Context) { ctx.NewOn(far, counter); ctx.Exit(2) }, 2},
		{"ring", func(ctx *Context) {
			ctx.Send(ctx.NewOn(far, bouncer), 1, ctx.NewOn(0, bouncer), bounces)
		}, far}, // an odd count of bounces ends on the far side
		{"fan-out-in", func(ctx *Context) {
			j := ctx.NewJoin(nodes, fanIn)
			for i := 0; i < nodes; i++ {
				ctx.Request(ctx.NewOn(i, counter), 1, j, i)
			}
		}, nodes * (nodes - 1) / 2},
		{"worker-exit", func(ctx *Context) { ctx.Send(ctx.NewOn(far, quitter), 1, 0) }, "exit"},
		{"worker-exit-now", func(ctx *Context) { ctx.Send(ctx.NewOn(far, quitter), 1, 1) }, "exit-now"},
		{"leader-exit-now", func(ctx *Context) {
			ctx.Send(ctx.NewOn(far, sleeper), 1)
			ctx.ExitNow("leader-exit-now")
		}, "leader-exit-now"},
	}
	type outcome struct {
		v   any
		err error
	}
	for _, tc := range cases {
		prog, err := l.Launch(tc.root)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make(chan outcome, 1)
		go func() {
			v, err := prog.Wait()
			got <- outcome{v, err}
		}()
		select {
		case o := <-got:
			if o.err != nil || o.v != tc.want {
				t.Fatalf("%s: Wait returned %v, %v; want %v", tc.name, o.v, o.err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Wait did not return within 30 s", tc.name)
		}
	}
	rig.shutdown(t)
}

// TestDistReportLabelsNeverRegress: a push labelled with wave k that
// reaches the leader after the worker's answer to probe k+1 must not
// replace that answer, or collecting wave k+1 waits for an answer it
// already had.
func TestDistReportLabelsNeverRegress(t *testing.T) {
	const k = 4
	d := newDistState(bareMachine(), &DistConfig{Transport: quietWire{}, Leader: true})
	d.onCtl(1, dcReport, reportMsg{Wave: k + 1, Progs: []progCountWire{{ID: 1, Created: 2, Consumed: 1}}}.appendTo(nil))
	d.onCtl(1, dcPush, reportMsg{Wave: k, Progs: []progCountWire{{ID: 1, Created: 1}}}.appendTo(nil))
	stop := make(chan struct{})
	collected := make(chan bool, 1)
	go func() {
		tm := time.NewTimer(time.Hour)
		tm.Stop()
		collected <- d.collectWave(k+1, stop, nil, tm)
	}()
	select {
	case ok := <-collected:
		if !ok {
			t.Fatal("collectWave gave up")
		}
	case <-time.After(10 * time.Second):
		close(stop)
		<-collected
		t.Fatal("wave k+1 is still waiting for the answer the stale push replaced")
	}
	if r := d.reports[1]; r.Wave != k+1 || len(r.Progs) != 1 || r.Progs[0].Created != 2 {
		t.Errorf("stored report %+v, want the wave-%d answer", r, k+1)
	}
	if !d.want.Load() {
		t.Error("a push did not ask for a wave")
	}
}

// quietWire is a two-process transport that takes every control message
// and delivers nothing.
type quietWire struct{ amnet.Transport }

func (quietWire) Procs() int                           { return 2 }
func (quietWire) SendControl(int, uint8, []byte) error { return nil }

// TestAllocDistWave: on the two-process rig, with one program that never
// ends, a steady-state wave — probe, the worker's report, the fold and
// the verdict, on both sides' transports — allocates nothing.
func TestAllocDistWave(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const nodes = 2
	rig := startDistRig(t, nodes, 2, func(cfg *Config) { cfg.StallTimeout = -1 }, registerDistTypes)
	sleeper := rig.leader().TypeByName("dist-sleeper")
	prog, err := rig.leader().Launch(func(ctx *Context) { ctx.Send(ctx.NewOn(nodes-1, sleeper), 1) })
	if err != nil {
		t.Fatal(err)
	}
	d := rig.leader().dist
	wave := func() {
		n := d.waves.Load()
		d.wantWave()
		for d.waves.Load() == n {
			// Sleep rather than spin: AllocsPerRun runs on one P, where a
			// spinning goroutine keeps the scheduler from polling the
			// sockets.
			time.Sleep(20 * time.Microsecond)
		}
	}
	// Until the worker has materialized the program and both sides'
	// buffers have grown, waves may allocate.
	if !spinUntil(func() bool { return rig.machines[1].progSeq.Load() == 1 }) {
		t.Fatal("the worker never heard of the program")
	}
	for i := 0; i < 64; i++ {
		wave()
	}
	if a := testing.AllocsPerRun(200, wave); a != 0 {
		t.Errorf("a steady-state wave allocates %v times, want 0", a)
	}
	if prog.isDone() {
		t.Error("the program with a pending message finished")
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
func runOn(rig *distRig, t testing.TB, root func(ctx *Context)) (any, error) {
	t.Helper()
	prog, err := rig.leader().Launch(root)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	return prog.Wait()
}

// BenchmarkDistLaunchWait times Launch to Wait on a two-process machine
// over a unix socket — the cost of the termination waves, since the work
// itself takes microseconds — for a program that never leaves the leader
// and for one whose root creates one actor in the worker's span.  p50-us
// is the median round trip.
func BenchmarkDistLaunchWait(b *testing.B) {
	for _, bc := range []struct {
		name string
		node int
	}{{"local", 0}, {"remote-create", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			rig := startDistRig(b, 2, 2, nil, registerDistTypes)
			typ := rig.leader().TypeByName("dist-counter")
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := runOn(rig, b, func(ctx *Context) { ctx.NewOn(bc.node, typ) }); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2])/float64(time.Microsecond), "p50-us")
			rig.shutdown(b)
		})
	}
}
