package main

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"time"

	"hal"
	"hal/internal/amnet"
	"hal/internal/amnet/sock"
	"hal/internal/apps/fib"
)

// halrun dist runs ONE process of a multi-process machine: the same
// kernel, spanning N OS processes over a unix-domain or TCP socket mesh.
//
//	halrun dist -listen /tmp/hal.sock -workers 2 -nodes 8 -app hopscotch
//	halrun dist -join   /tmp/hal.sock                      (run twice)
//
// The leader owns the workload definition: its flags are gob-encoded into
// a spec blob the socket handshake delivers to every worker, so all
// processes build identical machines (same node count, same behavior
// types in the same registration order, same fault plan).  Workers need
// only the leader's address.

// distSpec is the machine recipe the leader hands every worker.
type distSpec struct {
	App     string
	Nodes   int
	N       int
	GrainUS float64
	Rounds  int
	Faults  *hal.FaultPlan
}

func runDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	listen := fs.String("listen", "", "leader: address to listen on (socket path, or host:port with -net tcp)")
	join := fs.String("join", "", "worker: leader address to join")
	netName := fs.String("net", "unix", `socket family: "unix" or "tcp"`)
	workers := fs.Int("workers", 2, "leader: number of worker processes that will join")
	nodes := fs.Int("nodes", 8, "leader: kernel nodes, split contiguously across processes")
	app := fs.String("app", "hopscotch", "leader: workload: hopscotch (spawn/migrate/repair smoke) or fib")
	n := fs.Int("n", 18, "leader: fibonacci index (-app fib)")
	grain := fs.Float64("grain", 1, "leader: per-call compute in µs (-app fib)")
	rounds := fs.Int("rounds", 3, "leader: hopscotch rounds")
	stats := fs.Bool("stats", false, "print runtime and wire statistics")
	applyFaults := faultFlags(fs)
	applyObs, finishObs := obsFlags(fs)
	_ = fs.Parse(args)

	if (*listen == "") == (*join == "") {
		return fmt.Errorf("dist needs exactly one of -listen (leader) or -join (worker)")
	}
	if *join != "" {
		return runDistWorker(*netName, *join, *stats, applyObs, finishObs)
	}

	spec := distSpec{App: *app, Nodes: *nodes, N: *n, GrainUS: *grain, Rounds: *rounds}
	switch spec.App {
	case "hopscotch", "fib":
	default:
		return fmt.Errorf("unknown dist app %q (want hopscotch or fib)", spec.App)
	}
	// The fault plan rides the spec blob so every process injects the
	// same faults; a throwaway config receives it from the shared flags.
	var probe hal.Config
	faulty, err := applyFaults(&probe)
	if err != nil {
		return err
	}
	spec.Faults = probe.Faults
	return runDistLeader(*netName, *listen, *workers, spec, faulty, *stats, applyObs, finishObs)
}

func runDistLeader(network, addr string, workers int, spec distSpec, faulty, stats bool,
	applyObs func(*hal.Config) error, finishObs func() error) error {
	blob, err := encodeSpec(spec)
	if err != nil {
		return err
	}
	t, reg, err := sock.Listen(sock.LeaderConfig{
		Network: network, Addr: addr, Workers: workers, Nodes: spec.Nodes, Blob: blob,
	})
	if err != nil {
		return err
	}
	defer t.Close()
	lo, hi := reg.SpanOf(0)
	m, typ, err := buildDistMachine(spec, t, lo, hi, true, applyObs)
	if err != nil {
		return err
	}
	if err := m.Start(); err != nil {
		return err
	}
	start := time.Now()
	runErr := runDistWorkload(m, spec, typ)
	wall := time.Since(start)
	m.Shutdown()
	obsErr := finishObs()
	if stats {
		fmt.Print(m.Stats()) // wire counters included
	}
	switch {
	case runErr != nil:
		reportRecoveryOnError(faulty, m.Stats(), wall)
		return runErr
	case obsErr != nil:
		return obsErr
	case faulty:
		return reportRecovery(m.Stats())
	}
	return nil
}

func runDistWorker(network, addr string, stats bool,
	applyObs func(*hal.Config) error, finishObs func() error) error {
	t, reg, blob, err := sock.Join(network, addr)
	if err != nil {
		return err
	}
	defer t.Close()
	var spec distSpec
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&spec); err != nil {
		return fmt.Errorf("decoding the leader's machine spec: %w", err)
	}
	lo, hi := reg.SpanOf(t.Self())
	m, _, err := buildDistMachine(spec, t, lo, hi, false, applyObs)
	if err != nil {
		return err
	}
	if err := m.Start(); err != nil {
		return err
	}
	fmt.Printf("halrun dist: process %d of %d up, hosting nodes %s\n",
		t.Self(), t.Procs(), spanString(lo, hi))
	waitErr := m.DistWait() // blocks until the leader's shutdown broadcast
	m.Shutdown()
	obsErr := finishObs()
	if stats {
		fmt.Print(m.Stats())
	}
	if waitErr != nil {
		return waitErr
	}
	return obsErr
}

// buildDistMachine constructs one process's identical share of the
// machine: spec-derived config, the process's node span, and the app's
// behavior types registered in a fixed order (TypeIDs must agree across
// processes).
func buildDistMachine(spec distSpec, t *sock.Transport, lo, hi amnet.NodeID, leader bool,
	applyObs func(*hal.Config) error) (*hal.Machine, hal.TypeID, error) {
	cfg := hal.DefaultConfig(spec.Nodes)
	cfg.Faults = spec.Faults
	cfg.Dist = &hal.DistConfig{Transport: t, Leader: leader, Lo: int(lo), Hi: int(hi)}
	if err := applyObs(&cfg); err != nil {
		return nil, 0, err
	}
	m, err := hal.NewMachine(cfg)
	if err != nil {
		return nil, 0, err
	}
	var typ hal.TypeID
	switch spec.App {
	case "fib":
		typ = fib.Register(m, fib.Config{N: spec.N, GrainUS: spec.GrainUS, Place: fib.PlaceRandom}, nil)
	case "hopscotch":
		typ = m.RegisterType("hopper", func(args []any) hal.Behavior {
			return &hopper{Target: args[0].(int)}
		})
	}
	return m, typ, nil
}

// runDistWorkload runs the leader's side of the chosen app on the
// started machine and verifies the result.
func runDistWorkload(m *hal.Machine, spec distSpec, typ hal.TypeID) error {
	switch spec.App {
	case "fib":
		prog, err := m.Launch(func(ctx *hal.Context) {
			root := ctx.NewOn(ctx.Rand().Intn(ctx.Nodes()), typ)
			j := ctx.NewJoin(1, func(ctx *hal.Context, slots []any) { ctx.Exit(slots[0]) })
			ctx.Request(root, fib.SelCompute, j, 0, spec.N)
		})
		if err != nil {
			return err
		}
		v, err := prog.Wait()
		if err != nil {
			return err
		}
		if want := fib.Seq(spec.N); v != want {
			return fmt.Errorf("fib(%d) = %v across processes, want %d", spec.N, v, want)
		}
		fmt.Printf("fib(%d) = %v  (verified)\n", spec.N, v)
		return nil
	case "hopscotch":
		return runHopscotch(m, spec, typ)
	}
	return fmt.Errorf("unknown dist app %q", spec.App)
}

// hopper is the hopscotch smoke actor: created on one node, it migrates
// to its target on request and then answers where it landed.  The
// pointer type is gob-registered because migration ships the behavior
// itself across the wire.
type hopper struct{ Target int }

func (h *hopper) Receive(ctx *hal.Context, msg *hal.Message) {
	switch msg.Sel {
	case 1: // hop
		ctx.Migrate(h.Target)
	case 2: // where are you now?
		ctx.Reply(msg, ctx.Node())
		ctx.Die()
	}
}

func init() { gob.Register(&hopper{}) }

// runHopscotch runs spec.Rounds rounds of the cross-process smoke: every
// round creates a hopper on each node targeting the node half a machine
// away (for more than one process that is always a different process),
// sends it hopping, then chases it with a request — the reply only
// arrives after remote creation, migration, and forwarding-pointer
// repair all converge.  The sum of landing nodes is exact, so any lost
// or misrouted step fails the run.
func runHopscotch(m *hal.Machine, spec distSpec, typ hal.TypeID) error {
	nodes := spec.Nodes
	shift := nodes / 2
	want := nodes * (nodes - 1) / 2 // each round's landing nodes are a permutation
	for r := 0; r < spec.Rounds; r++ {
		prog, err := m.Launch(func(ctx *hal.Context) {
			j := ctx.NewJoin(nodes, func(ctx *hal.Context, vs []any) {
				sum := 0
				for _, v := range vs {
					sum += v.(int)
				}
				ctx.Exit(sum)
			})
			for i := 0; i < nodes; i++ {
				a := ctx.NewOn(i, typ, (i+shift)%nodes)
				ctx.Send(a, 1)
				ctx.Request(a, 2, j, i)
			}
		})
		if err != nil {
			return err
		}
		v, err := prog.Wait()
		if err != nil {
			return fmt.Errorf("hopscotch round %d: %w", r, err)
		}
		if v != want {
			return fmt.Errorf("hopscotch round %d: landing-node sum %v, want %d", r, v, want)
		}
	}
	fmt.Printf("hopscotch: %d rounds x %d hoppers migrated and converged  (verified)\n",
		spec.Rounds, nodes)
	return nil
}

func encodeSpec(spec distSpec) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func spanString(lo, hi amnet.NodeID) string {
	return fmt.Sprintf("[%d,%d)", int(lo), int(hi))
}
