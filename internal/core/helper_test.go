package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testMachine builds a machine for tests with quick stall detection and
// quiet output.
func testMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 2 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bareMachine is a Machine with nothing but its program table: enough to
// resolve, materialize and finish programs without kernels or a network.
func bareMachine() *Machine { return &Machine{progs: make(map[uint64]*Program)} }

// dumpFlightOnFailure arms a post-mortem flight record: if the test has
// failed by the time its cleanups run and HAL_FLIGHT_DIR is set (as in
// the CI flake-hunter job), the machine's flight record is written there
// under the test's name.  The record is most useful when the machine was
// built with Config.TraceBuffer, but the stats section works regardless.
// A machine spanning processes writes one record per process.
func dumpFlightOnFailure(t testing.TB, m *Machine) {
	t.Cleanup(func() {
		dir := os.Getenv("HAL_FLIGHT_DIR")
		if !t.Failed() || dir == "" {
			return
		}
		name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name())
		if m.dist != nil {
			name += fmt.Sprintf(".p%d", m.dist.t.Self())
		}
		name += ".flight"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Logf("flight record: %v", err)
			return
		}
		defer f.Close()
		if err := m.WriteFlightRecord(f, 0); err != nil {
			t.Logf("flight record: %v", err)
			return
		}
		t.Logf("flight record written to %s", f.Name())
	})
}

// msgWith gives a hand-built message its arguments the way every send
// does, through the conversion.
func msgWith(m *Message, args ...any) *Message {
	m.setArgs(args)
	return m
}

// run executes root and fails the test on error.
func run(t *testing.T, m *Machine, root func(ctx *Context)) any {
	t.Helper()
	v, err := m.Run(root)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

// probe collects values reported by actors across nodes, for assertions.
type probe struct {
	mu   sync.Mutex
	vals []any
}

func (p *probe) add(v any) {
	p.mu.Lock()
	p.vals = append(p.vals, v)
	p.mu.Unlock()
}

func (p *probe) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.vals)
}

func (p *probe) snapshot() []any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]any(nil), p.vals...)
}

// funcBehavior adapts a function to Behavior for concise tests.
type funcBehavior struct {
	f func(ctx *Context, msg *Message)
}

func (b *funcBehavior) Receive(ctx *Context, msg *Message) { b.f(ctx, msg) }

// echoBehavior replies with its node id and records deliveries.
type echoBehavior struct {
	p *probe
}

const (
	selEcho Selector = iota + 1
	selPing
	selPong
	selInc
	selGet
	selStop
	selWork
	selInit
	selValue
)

func (b *echoBehavior) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selEcho:
		b.p.add(ctx.Node())
		ctx.Reply(msg, ctx.Node())
	case selWork:
		b.p.add(msg.Arg(0))
	}
}

// counterBehavior counts selInc messages and replies the count to selGet.
type counterBehavior struct {
	n int
}

func (b *counterBehavior) Receive(ctx *Context, msg *Message) {
	switch msg.Sel {
	case selInc:
		b.n++
	case selGet:
		ctx.Reply(msg, b.n)
	}
}
