package bench

import (
	"fmt"
	"io"
	"time"

	"hal"
)

// Table3Row is one invocation mechanism's per-call cost, with the counters
// of the machine that ran it (zero for the plain calls).
type Table3Row struct {
	Name      string
	WallNS    float64
	VirtualUS float64 // model cost where applicable, else 0
	Stats     hal.MachineStats
}

// Table3Result compares method-invocation mechanisms, the paper's Table 3
// ("locality check + function invocation" vs generic sends).
type Table3Result struct {
	Rows []Table3Row
}

//go:noinline
func plainCall(x int) int { return x + 1 }

type iface interface{ call(int) int }

type ifaceImpl struct{}

//go:noinline
func (ifaceImpl) call(x int) int { return x + 1 }

// Table3 measures the invocation mechanisms.
func Table3() (Table3Result, error) {
	var res Table3Result
	costs := hal.DefaultCostModel()
	const k = 200000

	{ // plain function call
		t0 := time.Now()
		s := 0
		for i := 0; i < k; i++ {
			s = plainCall(s)
		}
		d := time.Since(t0)
		_ = s
		res.Rows = append(res.Rows, Table3Row{Name: "function call (Go, noinline)", WallNS: float64(d.Nanoseconds()) / k})
	}
	{ // interface method call (HAL's dynamic method dispatch analog)
		var f iface = ifaceImpl{}
		t0 := time.Now()
		s := 0
		for i := 0; i < k; i++ {
			s = f.call(s)
		}
		d := time.Since(t0)
		_ = s
		res.Rows = append(res.Rows, Table3Row{Name: "method lookup + invocation (interface)", WallNS: float64(d.Nanoseconds()) / k})
	}

	// SendFast: locality check + enabledness check + static dispatch on
	// the caller's stack — the compiler-controlled path of § 6.3.
	d, st, err := timeInRoot(1, func(ctx *hal.Context) {
		a := ctx.New(nopBehavior{})
		for i := 0; i < 100; i++ {
			ctx.SendFast(a, selNop)
		}
		t0 := time.Now()
		for i := 0; i < 50000; i++ {
			ctx.SendFast(a, selNop)
		}
		ctx.Exit(time.Since(t0))
	})
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Table3Row{
		Name:      "locality check + static dispatch (SendFast)",
		WallNS:    float64(d.Nanoseconds()) / 50000,
		VirtualUS: costs.FastSend,
		Stats:     st,
	})

	// Generic local send measured end to end: enqueue, dispatcher, method
	// run.  Timed as a whole quiescent run of k sends divided by k.
	{
		const kk = 50000
		cfg := quiet(1, false)
		cfg.InboxCap = 1 << 16
		m, err := hal.NewMachine(cfg)
		if err != nil {
			return res, err
		}
		m.RegisterType("nop", func(args []any) hal.Behavior { return nopBehavior{} })
		t0 := time.Now()
		if _, err := m.Run(func(ctx *hal.Context) {
			a := ctx.New(nopBehavior{})
			for i := 0; i < kk; i++ {
				ctx.Send(a, selNop)
			}
		}); err != nil {
			return res, err
		}
		d := time.Since(t0)
		res.Rows = append(res.Rows, Table3Row{
			Name:      "generic local send + dispatch (quiescent run)",
			WallNS:    float64(d.Nanoseconds()) / kk,
			VirtualUS: costs.LocalSend + costs.Dispatch,
			Stats:     m.Stats(),
		})
	}

	// Remote send + dispatch, pipelined across two nodes.
	{
		const kk = 50000
		cfg := quiet(2, false)
		cfg.InboxCap = 1 << 16
		m, err := hal.NewMachine(cfg)
		if err != nil {
			return res, err
		}
		m.RegisterType("nop", func(args []any) hal.Behavior { return nopBehavior{} })
		t0 := time.Now()
		if _, err := m.Run(func(ctx *hal.Context) {
			a := ctx.NewOn(1, hal.TypeID(1))
			for i := 0; i < kk; i++ {
				ctx.Send(a, selNop)
			}
		}); err != nil {
			return res, err
		}
		d := time.Since(t0)
		res.Rows = append(res.Rows, Table3Row{
			Name:      "remote send + dispatch (pipelined)",
			WallNS:    float64(d.Nanoseconds()) / kk,
			VirtualUS: costs.RemoteSend + costs.NetLatency + costs.Dispatch,
			Stats:     m.Stats(),
		})
	}
	return res, nil
}

// Print renders the table.
func (r Table3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 3: comparable method invocation costs")
	fmt.Fprintf(w, "%-48s %12s %12s\n", "mechanism", "host ns/op", "model µs/op")
	hr(w, 74)
	for _, row := range r.Rows {
		v := "-"
		if row.VirtualUS > 0 {
			v = fmt.Sprintf("%.2f", row.VirtualUS)
		}
		fmt.Fprintf(w, "%-48s %12.0f %12s\n", row.Name, row.WallNS, v)
	}
}
