package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// FIFO-per-pair property (the Actor model's ordering guarantee): messages
// from one sender to one receiver are processed in send order, even while
// the receiver migrates arbitrarily and senders' caches go stale.
//
// A courier actor sends numbered letters to a wandering receiver between
// random migrations; the receiver records each sender's sequence and must
// see strictly increasing numbers per sender.

type fifoReceiver struct {
	last map[int]int // sender id -> last sequence seen
	bad  *[]string   // one line per out-of-order delivery
}

func (r *fifoReceiver) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selWork:
		sender, seq := msg.Int(0), msg.Int(1)
		if prev, ok := r.last[sender]; ok && seq != prev+1 {
			*r.bad = append(*r.bad, fmt.Sprintf("courier %d: letter %d arrived after letter %d, on node %d at vt %.1f",
				sender, seq, prev, ctx.Node(), msg.vt))
		}
		r.last[sender] = seq
	case selPing:
		ctx.Migrate(msg.Int(0))
	case selEcho:
		ctx.Reply(msg, ctx.Node())
	}
}

// courier sends bursts of numbered letters, occasionally commanding a
// migration, pacing itself with echoes so the run stays bounded.
type courier struct {
	id     int
	target Addr
	rng    *rand.Rand
	seq    int
	rounds int
	nodes  int
}

func (c *courier) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selInit:
		c.target = msg.Addr(0)
		c.burst(ctx)
	case selPong:
		c.burst(ctx)
	}
}

func (c *courier) burst(ctx *Context) {
	if c.rounds <= 0 {
		return
	}
	c.rounds--
	k := c.rng.Intn(5) + 1
	for i := 0; i < k; i++ {
		c.seq++
		ctx.Send(c.target, selWork, c.id, c.seq)
	}
	if c.rng.Intn(3) == 0 {
		ctx.Send(c.target, selPing, c.rng.Intn(c.nodes))
	}
	j := ctx.NewJoin(1, func(ctx *Context, _ []any) {
		ctx.Send(ctx.Self(), selPong)
	})
	ctx.Request(c.target, selEcho, j, 0)
}

func TestFIFOPerPairUnderMigration(t *testing.T) {
	f := func(seed int64) bool {
		m, err := NewMachine(Config{Nodes: 4, StallTimeout: 30 * time.Second, Out: discard{}, TraceBuffer: 8192})
		if err != nil {
			t.Fatal(err)
		}
		var bad []string
		recvT := m.RegisterType("recv", func(args []any) Behavior {
			return &fifoReceiver{last: map[int]int{}, bad: &bad}
		})
		courT := m.RegisterType("courier", func(args []any) Behavior {
			return &courier{
				id:     args[0].(int),
				rng:    rand.New(rand.NewSource(int64(args[0].(int)) ^ args[1].(int64))),
				rounds: 15,
				nodes:  4,
			}
		})
		if _, err := m.Run(func(ctx *Context) {
			r := ctx.NewOn(1, recvT)
			for id := 0; id < 3; id++ {
				cr := ctx.NewOn(id%4, courT, id, seed)
				ctx.Send(cr, selInit, r)
			}
		}); err != nil {
			t.Fatalf("seed %d: %v\n%s\n%s", seed, err, m.DebugDump(), fifoTrace(m))
		}
		if len(bad) != 0 {
			// The receiver is the only actor here that moves or is looked
			// up, so these events are its whole location history: which
			// stale-cached letter met a forwarder (send-routed) while its
			// successors met the reinstalled actor.
			t.Logf("seed %d: %d out-of-order deliveries\n%s\n%s", seed, len(bad),
				strings.Join(bad, "\n"), fifoTrace(m))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// fifoTrace is the machine's migration, FIR, re-routing and dead-letter
// events in virtual-time order.
func fifoTrace(m *Machine) string {
	var tr strings.Builder
	for _, e := range m.Trace() {
		switch e.Kind {
		case EvMigrateOut, EvMigrateIn, EvFIRSent, EvFIRServed, EvSendRouted, EvDeadLetter:
			fmt.Fprintln(&tr, e)
		}
	}
	return tr.String()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
