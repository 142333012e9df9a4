package bench

import (
	"fmt"
	"io"
	"time"

	"hal"
	"hal/internal/names"
)

// Table2Row is one runtime primitive's cost: host wall time per operation
// next to the virtual-time model value (calibrated to the paper's CM-5
// measurements).  Stats are the counters of the machine that ran the row
// (zero for a row measured on a data structure): what the primitive did,
// which — unlike how long this host took over it — does not vary.
type Table2Row struct {
	Name      string
	WallNS    float64 // measured on this host
	VirtualUS float64 // cost-model value (the paper's scale)
	Stats     hal.MachineStats
}

// Table2Result holds the primitive measurements.
type Table2Result struct {
	Rows []Table2Row
}

const (
	selNop hal.Selector = iota + 1
	selEchoB
)

// nopBehavior accepts anything; echoes on selEchoB.
type nopBehavior struct{}

func (nopBehavior) Receive(ctx *hal.Context, msg *hal.Message) {
	if msg.Sel == selEchoB {
		ctx.Reply(msg, 0)
	}
}

// timeInRoot runs fn inside a root actor on a fresh machine and returns
// the duration fn reported via Exit, and the machine's counters.
func timeInRoot(nodes int, fn func(ctx *hal.Context)) (time.Duration, hal.MachineStats, error) {
	cfg := quiet(nodes, false)
	cfg.InboxCap = 1 << 16 // keep back-pressure out of primitive timings
	m, err := hal.NewMachine(cfg)
	if err != nil {
		return 0, hal.MachineStats{}, err
	}
	m.RegisterType("nop", func(args []any) hal.Behavior { return nopBehavior{} })
	v, err := m.Run(fn)
	if err != nil {
		return 0, hal.MachineStats{}, err
	}
	d, ok := v.(time.Duration)
	if !ok {
		return 0, hal.MachineStats{}, fmt.Errorf("bench: primitive run returned %T", v)
	}
	return d, m.Stats(), nil
}

// Table2 measures the runtime primitives (the paper's Table 2).
func Table2() (Table2Result, error) {
	var res Table2Result
	costs := hal.DefaultCostModel()
	add := func(name string, iters int, virtual float64, nodes int, fn func(ctx *hal.Context)) error {
		d, st, err := timeInRoot(nodes, fn)
		if err != nil {
			return fmt.Errorf("table2 %q: %w", name, err)
		}
		res.Rows = append(res.Rows, Table2Row{Name: name, WallNS: float64(d.Nanoseconds()) / float64(iters), VirtualUS: virtual, Stats: st})
		return nil
	}

	const k = 20000
	if err := add("local creation", k, costs.CreateLocal, 1, func(ctx *hal.Context) {
		b := nopBehavior{}
		for i := 0; i < 100; i++ {
			ctx.New(b)
		}
		t0 := time.Now()
		for i := 0; i < k; i++ {
			ctx.New(b)
		}
		ctx.Exit(time.Since(t0))
	}); err != nil {
		return res, err
	}

	if err := add("local send (generic, enqueue)", k, costs.LocalSend, 1, func(ctx *hal.Context) {
		a := ctx.New(nopBehavior{})
		for i := 0; i < 100; i++ {
			ctx.Send(a, selNop)
		}
		t0 := time.Now()
		for i := 0; i < k; i++ {
			ctx.Send(a, selNop)
		}
		ctx.Exit(time.Since(t0))
	}); err != nil {
		return res, err
	}

	if err := add("local send (fast path, incl. dispatch)", k, costs.FastSend, 1, func(ctx *hal.Context) {
		a := ctx.New(nopBehavior{})
		for i := 0; i < 100; i++ {
			ctx.SendFast(a, selNop)
		}
		t0 := time.Now()
		for i := 0; i < k; i++ {
			ctx.SendFast(a, selNop)
		}
		ctx.Exit(time.Since(t0))
	}); err != nil {
		return res, err
	}

	if err := add("remote creation (alias, requester-visible)", 4096, costs.CreateAlias, 2, func(ctx *hal.Context) {
		typ := hal.TypeID(1) // "nop" registered by timeInRoot
		ctx.NewOn(1, typ)
		t0 := time.Now()
		for i := 0; i < 4096; i++ {
			ctx.NewOn(1, typ)
		}
		ctx.Exit(time.Since(t0))
	}); err != nil {
		return res, err
	}

	if err := add("remote creation + first use (round trip)", 512, costs.CreateAlias+costs.CreateServe+2*costs.NetLatency, 2, func(ctx *hal.Context) {
		typ := hal.TypeID(1)
		t0 := time.Now()
		n := 0
		var step func(ctx *hal.Context)
		step = func(ctx *hal.Context) {
			if n == 512 {
				ctx.Exit(time.Since(t0))
				return
			}
			n++
			a := ctx.NewOn(1, typ)
			j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { step(ctx) })
			ctx.Request(a, selEchoB, j, 0)
		}
		step(ctx)
	}); err != nil {
		return res, err
	}

	if err := add("remote send (cached descriptor)", k, costs.RemoteSend, 2, func(ctx *hal.Context) {
		a := ctx.NewOn(1, hal.TypeID(1))
		j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) {
			// Cache is warm (the request's delivery sent it back).
			t0 := time.Now()
			for i := 0; i < k; i++ {
				ctx.Send(a, selNop)
			}
			ctx.Exit(time.Since(t0))
		})
		ctx.Request(a, selEchoB, j, 0)
	}); err != nil {
		return res, err
	}

	if err := add("migration (round trip between 2 nodes)", 256, costs.Migrate+2*costs.NetLatency, 2, func(ctx *hal.Context) {
		hopper := ctx.New(&hopBehavior{})
		t0 := time.Now()
		n := 0
		var step func(ctx *hal.Context)
		step = func(ctx *hal.Context) {
			if n == 256 {
				ctx.Exit(time.Since(t0))
				return
			}
			n++
			j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { step(ctx) })
			ctx.Request(hopper, selNop, j, 0, (n % 2))
		}
		step(ctx)
	}); err != nil {
		return res, err
	}

	// Locality check: a name-table consultation with only local
	// information, the paper's "<1 µs" row; measured on the data
	// structure directly.
	{
		tb := names.NewTable()
		addr := names.Addr{Birth: 0, Hint: 0, Seq: 7}
		tb.Bind(addr, 7)
		const kk = 1 << 20
		t0 := time.Now()
		var sink uint64
		for i := 0; i < kk; i++ {
			sink += tb.Lookup(addr)
		}
		d := time.Since(t0)
		_ = sink
		res.Rows = append(res.Rows, Table2Row{
			Name:      "locality check (name table hit)",
			WallNS:    float64(d.Nanoseconds()) / float64(kk),
			VirtualUS: 0.5,
		})
	}
	return res, nil
}

// hopBehavior migrates to the node named in arg 0, then replies.
type hopBehavior struct{}

func (hopBehavior) Receive(ctx *hal.Context, msg *hal.Message) {
	if msg.Sel == selNop && msg.NArgs() > 0 {
		ctx.Migrate(msg.Int(0))
		ctx.Reply(msg, ctx.Node())
	}
}

// Print renders the table.
func (r Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 2: execution time of runtime primitives")
	fmt.Fprintf(w, "%-44s %14s %14s\n", "primitive", "host ns/op", "model µs/op")
	hr(w, 74)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-44s %14.0f %14.2f\n", row.Name, row.WallNS, row.VirtualUS)
	}
}
