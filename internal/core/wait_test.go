package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestFinishWakesParkedNodes: a node's park blocks on its wake channel
// alone, so stopping the machine must hand every node a token after
// closing stop.  A machine whose nodes are all parked — or about to be:
// the snapshot a node publishes on its way down is what the test waits
// for — shuts down promptly, every time; a lost stop-wake is a Shutdown
// that never returns.
func TestFinishWakesParkedNodes(t *testing.T) {
	const nodes, rounds = 4, 200
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := testMachine(t, Config{Nodes: nodes})
			for r := 0; r < rounds; r++ {
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
				// IdleParks is cumulative over the machine's runs: every
				// node has parked r times before this one.
				for deadline := time.Now().Add(5 * time.Second); ; {
					parked := 0
					for _, s := range m.StatsNow().PerNode {
						if s.IdleParks > uint64(r) {
							parked++
						}
					}
					if parked == nodes {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("round %d: %d of %d nodes parked after 5 s", r, parked, nodes)
					}
					runtime.Gosched()
				}
				t0 := time.Now()
				down := make(chan struct{})
				go func() { m.Shutdown(); close(down) }()
				select {
				case <-down:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: Shutdown of an all-parked machine hung: a node missed the stop wake", r)
				}
				if took := time.Since(t0); took > 50*time.Millisecond {
					t.Errorf("round %d: Shutdown took %v, want under 50 ms", r, took)
				}
			}
		})
	}
}

// TestNoYieldWithoutResidentPeer: the yield is directed at a resident
// endpoint.  Two one-node machines joined by a socket have none — the
// next packet comes off the wire, and a yielding node would only keep the
// processor from the reader that will deliver it — so a ring between them
// runs on parks alone.
func TestNoYieldWithoutResidentPeer(t *testing.T) {
	const hops = 2000
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rig := startDistRig(t, 2, 2, nil, func(m *Machine) {
				m.RegisterType("hop", func(args []any) Behavior {
					next := args[1].(Group).Member(1 - args[0].(int))
					return BehaviorFunc(func(ctx *Context, msg *Message) {
						if ttl := msg.Int(0); ttl > 1 {
							ctx.Send(next, selToken, ttl-1)
						}
					})
				})
			})
			typ := rig.leader().TypeByName("hop")
			if _, err := runOn(rig, t, func(ctx *Context) {
				ctx.Send(ctx.NewGroup(typ, 2, 0).Member(0), selToken, hops)
			}); err != nil {
				t.Fatal(err)
			}
			rig.shutdown(t)
			var delivered uint64
			for i, m := range rig.machines {
				st := m.Stats().Total
				delivered += st.Delivered
				if st.IdleYields != 0 {
					t.Errorf("process %d: IdleYields = %d with no resident peer, want 0", i, st.IdleYields)
				}
				if st.IdleParks == 0 {
					t.Errorf("process %d: IdleParks = 0: the ring did not wait at all", i)
				}
			}
			if delivered < hops {
				t.Errorf("delivered %d messages, want at least the ring's %d hops", delivered, hops)
			}
		})
	}
}
