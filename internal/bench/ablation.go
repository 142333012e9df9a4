package bench

import (
	"fmt"
	"io"
	"time"

	"hal"
)

// Ablations of the design choices DESIGN.md calls out.  Each returns the
// measured pair(s) so tests can assert the direction of the effect.

// AblationResult is one knob's comparison.
type AblationResult struct {
	Name     string
	Baseline time.Duration // the paper's design
	Ablated  time.Duration // with the mechanism disabled
	Note     string
}

// AblationSuite runs every ablation.
type AblationSuite struct {
	Results []AblationResult
}

const (
	selAblWork hal.Selector = iota + 1
	selAblEcho
	selAblHop
)

// AblateLDCache measures locality-descriptor caching (§ 4.1): a sender
// exchanging many messages with one remote actor, with and without the
// descriptor-address cache (ablated, every send routes via the
// birthplace and the receiver walks its name table).
func AblateLDCache() (AblationResult, error) {
	const rounds = 400
	runOne := func(disable bool) (time.Duration, error) {
		cfg := quiet(2, false)
		cfg.DisableLDCache = disable
		m, err := hal.NewMachine(cfg)
		if err != nil {
			return 0, err
		}
		echo := m.RegisterType("echo", func(args []any) hal.Behavior {
			return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
				ctx.Reply(msg, 0)
			})
		})
		if _, err := m.Run(func(ctx *hal.Context) {
			a := ctx.NewOn(1, echo)
			n := 0
			var step func(ctx *hal.Context)
			step = func(ctx *hal.Context) {
				if n == rounds {
					return
				}
				n++
				j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { step(ctx) })
				ctx.Request(a, selAblEcho, j, 0)
			}
			step(ctx)
		}); err != nil {
			return 0, err
		}
		return m.VirtualTime(), nil
	}
	base, err := runOne(false)
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := runOne(true)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "locality-descriptor caching (§4.1)",
		Baseline: base,
		Ablated:  abl,
		Note:     fmt.Sprintf("%d request/reply rounds to one remote actor", rounds),
	}, nil
}

// AblateFIR measures FIR-based chasing (§ 4.3) against naive hop-by-hop
// forwarding of whole messages, using bulk payloads sent to an actor that
// has migrated down a chain.
//
// Every step waits for the message that makes it true, so the result does
// not depend on which node the host runs first: the driver walks the actor
// on only once the stale sender has had its answer from the node-3 home
// (and with it, FIR on, that home's descriptor address), and the sender
// fires one message, waits for the actor to have it, and only then fires
// the other nineteen.  With FIR the first message is held at node 3 while
// a request chases the chain, goes straight to the actor's home, and
// repairs the sender's cache on arrival, so the rest cross the network
// once.  Naive forwarding repairs nothing: all twenty go by the
// birthplace's forwarding entry and cross twice.
func AblateFIR() (AblationResult, error) {
	const payloadWords = 4096
	runOne := func(naive bool) (time.Duration, error) {
		cfg := quiet(6, false)
		cfg.NaiveForwarding = naive
		m, err := hal.NewMachine(cfg)
		if err != nil {
			return 0, err
		}
		wanderer := m.RegisterType("wanderer", func(args []any) hal.Behavior {
			return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
				switch msg.Sel {
				case selAblHop:
					ctx.Migrate(msg.Int(0))
				case selAblEcho:
					ctx.Reply(msg, 0)
				case selAblWork:
					ctx.Reply(msg, 0) // consume the payload; acknowledge if asked
				}
			})
		})
		stale := m.RegisterType("stale", func(args []any) hal.Behavior {
			var w hal.Addr
			return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
				switch msg.Sel {
				case 10: // cache the wanderer's current location, then tell the driver
					w = msg.Addr(0)
					d := msg.Addr(1)
					j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { ctx.Send(d, 11) })
					ctx.Request(w, selAblEcho, j, 0)
				case 11: // fire at the stale location: one message, and the rest once it has landed
					j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) {
						for i := 1; i < 20; i++ {
							ctx.SendData(w, selAblWork, make([]float64, payloadWords))
						}
					})
					ctx.RequestData(w, selAblWork, j, 0, make([]float64, payloadWords))
				}
			})
		})
		driver := m.RegisterType("driver", func(args []any) hal.Behavior {
			var w, s hal.Addr
			step := 0
			return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
				switch msg.Sel {
				case 10:
					w, s = msg.Addr(0), msg.Addr(1)
					j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { ctx.Send(ctx.Self(), 11) })
					ctx.Request(w, selAblEcho, j, 0)
				case 11:
					step++
					switch step {
					case 1:
						// Move to node 3; the stale sender will cache
						// THIS location before the rest of the walk.
						ctx.Send(w, selAblHop, 3)
						j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { ctx.Send(ctx.Self(), 11) })
						ctx.Request(w, selAblEcho, j, 0)
					case 2:
						ctx.Send(s, 10, w, ctx.Self()) // stale caches the node-3 home and sends the next 11
					case 3:
						// Walk on: 3 -> 4 -> 5.  Node 3 learns only the
						// next hop; node 4 the one after; the birthplace
						// is elsewhere, so the chain survives.
						ctx.Send(w, selAblHop, 4)
						ctx.Send(w, selAblHop, 5)
						j := ctx.NewJoin(1, func(ctx *hal.Context, _ []any) { ctx.Send(ctx.Self(), 11) })
						ctx.Request(w, selAblEcho, j, 0)
					case 4:
						ctx.Send(s, 11)
					}
				}
			})
		})
		if _, err := m.Run(func(ctx *hal.Context) {
			w := ctx.NewOn(1, wanderer)
			s := ctx.NewOn(2, stale)
			d := ctx.NewOn(0, driver)
			ctx.Send(d, 10, w, s)
		}); err != nil {
			return 0, err
		}
		return m.VirtualTime(), nil
	}
	base, err := runOne(false)
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := runOne(true)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "FIR vs naive forwarding (§4.3)",
		Baseline: base,
		Ablated:  abl,
		Note:     fmt.Sprintf("20 x %d-word messages chasing a 2-hop forwarding chain", payloadWords),
	}, nil
}

// AblateFastPath measures the compiler-controlled stack scheduling
// (§ 6.3): a deep local call tree run with SendFast enabled vs disabled
// (FastPathDepth 0 forces the generic path).
func AblateFastPath() (AblationResult, error) {
	runOne := func(depth int) (time.Duration, error) {
		cfg := quiet(1, false)
		cfg.FastPathDepth = depth
		m, err := hal.NewMachine(cfg)
		if err != nil {
			return 0, err
		}
		var typ hal.TypeID
		typ = m.RegisterType("tree", func(args []any) hal.Behavior {
			return hal.BehaviorFunc(func(ctx *hal.Context, msg *hal.Message) {
				d := msg.Int(0)
				if d == 0 {
					return
				}
				l := ctx.NewType(typ)
				r := ctx.NewType(typ)
				ctx.SendFast(l, selAblWork, d-1)
				ctx.SendFast(r, selAblWork, d-1)
			})
		})
		if _, err := m.Run(func(ctx *hal.Context) {
			root := ctx.NewType(typ)
			ctx.SendFast(root, selAblWork, 10)
		}); err != nil {
			return 0, err
		}
		return m.VirtualTime(), nil
	}
	base, err := runOne(64)
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := runOne(-1) // negative disables the fast path entirely
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "stack-based local scheduling (§6.3)",
		Baseline: base,
		Ablated:  abl,
		Note:     "binary call tree of depth 10, all local sends through SendFast",
	}, nil
}

// Ablations runs the whole suite.
func Ablations() (AblationSuite, error) {
	var s AblationSuite
	for _, f := range []func() (AblationResult, error){AblateLDCache, AblateFIR, AblateFastPath} {
		r, err := f()
		if err != nil {
			return s, err
		}
		s.Results = append(s.Results, r)
	}
	return s, nil
}

// Print renders the suite.
func (s AblationSuite) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablations: virtual makespan with the mechanism vs without")
	fmt.Fprintf(w, "%-40s %12s %12s   %s\n", "mechanism", "with", "without", "workload")
	hr(w, 100)
	for _, r := range s.Results {
		fmt.Fprintf(w, "%-40s %12s %12s   %s\n", r.Name, ms(r.Baseline)+"ms", ms(r.Ablated)+"ms", r.Note)
	}
}
