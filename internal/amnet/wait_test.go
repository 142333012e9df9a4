package amnet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestWaitSubMillisecondDeadline: a deadline under a millisecond is
// yielded through, not timed — on an otherwise idle process with one P a
// 20 µs timer is rounded up to a millisecond-grained sleep, and arming it
// allocates — until the endpoint has yielded a millisecond away without
// receiving anything, after which it parks on a timer like any wait that
// long.  A packet renews the budget.
func TestWaitSubMillisecondDeadline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nw := newTestNet(t, Config{Nodes: 2}, map[HandlerID]Handler{hCount: func(*Endpoint, Packet) {}})
	ep := nw.Endpoint(0)
	// One packet to itself, then a 20 µs wait on the empty inbox.
	afterTraffic := func() time.Duration {
		ep.Send(Packet{Handler: hCount, Dst: 0})
		if !ep.RecvBlock(nil, 0) {
			t.Fatal("RecvBlock did not deliver the packet")
		}
		t0 := time.Now()
		if ep.RecvBlock(nil, 20*time.Microsecond) {
			t.Fatal("RecvBlock delivered from an empty inbox")
		}
		return time.Since(t0)
	}
	const calls = 200
	took := make([]time.Duration, calls)
	for i := range took {
		took[i] = afterTraffic()
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if med := took[calls/2]; med < 20*time.Microsecond || med >= 500*time.Microsecond {
		t.Errorf("median 20 µs wait took %v, want at least 20 µs and under 500 µs", med)
	}
	if !raceEnabled { // race instrumentation allocates
		if allocs := testing.AllocsPerRun(200, func() { afterTraffic() }); allocs != 0 {
			t.Errorf("a sub-millisecond wait allocates %.2f times, want 0", allocs)
		}
	}
	if st := ep.Stats(); st.WaitParks != 0 {
		t.Errorf("WaitParks = %d after sub-millisecond waits with traffic between them, want 0", st.WaitParks)
	}
	// No traffic: 50 waits of 20 µs are the millisecond; the rest park.
	for i := 0; i < 60; i++ {
		ep.RecvBlock(nil, 20*time.Microsecond)
	}
	if parks := ep.Stats().WaitParks; parks < 5 || parks > 15 {
		t.Errorf("WaitParks = %d after 60 empty 20 µs waits, want about 10: the yield budget is a millisecond", parks)
	}
}

// bounceNet is four endpoints in two pairs (0,1) and (2,3).  Its one
// handler sends a packet back to where it came from with U0 counted down,
// and reports the last one on its pair's done channel.
type bounceNet struct {
	nw   *Network
	done [2]chan struct{}
}

func newBounceNet(t *testing.T) *bounceNet {
	b := &bounceNet{done: [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}}
	b.nw = newTestNet(t, Config{Nodes: 4}, map[HandlerID]Handler{
		hPing: func(ep *Endpoint, p Packet) {
			if p.U0 == 0 {
				select { // one in flight per pair, so never full
				case b.done[ep.ID()/2] <- struct{}{}:
				default:
				}
				return
			}
			ep.Send(Packet{Handler: hPing, Dst: p.Src, U0: p.U0 - 1})
		},
	})
	return b
}

// drive owns endpoint id on a goroutine of its own: it sends kick, if
// any, and then handles packet after packet until wait reports false.
func (b *bounceNet) drive(wg *sync.WaitGroup, id NodeID, kick *Packet, wait func(*Endpoint) bool) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := b.nw.Endpoint(id)
		if kick != nil {
			ep.Send(*kick)
		}
		for wait(ep) {
		}
	}()
}

// TestWaitLostWakeupStress bounces one packet between two endpoints a
// million times through Wait — every hop crosses the empty edge, by a
// yield or by a park as the schedule has it — under a watchdog: a lost
// wake-up shows as a hang.  In the churn variant a second pair joins,
// exchanges 64 packets, falls asleep and leaves, over and over, so
// Network.awake crosses 2 in both directions mid-run and the first pair
// keeps changing between the yield and the park.
func TestWaitLostWakeupStress(t *testing.T) {
	hops := uint64(1_000_000)
	if testing.Short() {
		hops = 50_000
	}
	for _, procs := range []int{1, 2, 4} {
		for _, churn := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/churn=%v", procs, churn), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b := newBounceNet(t)
				stop := make(chan struct{})
				var wg sync.WaitGroup
				viaWait := func(ep *Endpoint) bool { return ep.Wait(stop, 0) }
				b.drive(&wg, 0, &Packet{Handler: hPing, Dst: 1, U0: hops}, viaWait)
				b.drive(&wg, 1, nil, viaWait)

				rounds := 0
				stopChurn := make(chan struct{})
				churnDone := make(chan struct{})
				go func() {
					defer close(churnDone)
					for churn {
						leave := make(chan struct{})
						var pair sync.WaitGroup
						viaRecvBlock := func(ep *Endpoint) bool { return ep.RecvBlock(leave, 0) }
						b.drive(&pair, 2, &Packet{Handler: hPing, Dst: 3, U0: 64}, viaRecvBlock)
						b.drive(&pair, 3, nil, viaRecvBlock)
						<-b.done[1]
						// Asleep, then gone: both leave the first pair alone
						// with each other for a while.
						time.Sleep(50 * time.Microsecond)
						close(leave)
						pair.Wait()
						time.Sleep(50 * time.Microsecond)
						rounds++
						select {
						case <-stopChurn:
							return
						default:
						}
					}
				}()

				select {
				case <-b.done[0]:
				case <-time.After(2 * time.Minute):
					t.Fatalf("hung with awake=%d, rsleep=%d/%d", b.nw.awake.Load(),
						b.nw.Endpoint(0).rsleep.Load(), b.nw.Endpoint(1).rsleep.Load())
				}
				close(stopChurn)
				<-churnDone
				close(stop)
				b.nw.Endpoint(0).Wake()
				b.nw.Endpoint(1).Wake()
				wg.Wait()

				s0, s1 := b.nw.Endpoint(0).Stats(), b.nw.Endpoint(1).Stats()
				if got := s0.Received + s1.Received; got != hops+1 {
					t.Errorf("received %d packets, want %d", got, hops+1)
				}
				if churn && rounds == 0 {
					t.Error("the second pair never completed an exchange")
				}
				if awake := b.nw.awake.Load(); awake != 0 {
					t.Errorf("awake = %d with every endpoint gone, want 0", awake)
				}
				for id := NodeID(0); id < 4; id++ {
					if n := len(b.nw.Endpoint(id).recvWake); n != 0 {
						t.Errorf("endpoint %d: a wake token outlived its sleep", id)
					}
				}
				t.Logf("yields=%d parks=%d churn rounds=%d", s0.WaitYields+s1.WaitYields, s0.WaitParks+s1.WaitParks, rounds)
			})
		}
	}
}
