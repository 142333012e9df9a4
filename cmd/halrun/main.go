// Command halrun runs the evaluation workloads individually and reports
// timing, statistics, and (where applicable) numerical verification.
//
// Usage:
//
//	halrun fib      [-n 20] [-nodes 4] [-lb] [-place dynamic|local|random]
//	halrun quad     [-eps 1e-6] [-nodes 4] [-place dynamic|partitioned|random]
//	halrun pagerank [-n 2000] [-deg 8] [-iters 20] [-nodes 4] [-verify]
//	halrun cannon   [-n 240] [-grid 4] [-verify]
//	halrun cholesky [-n 256] [-b 16] [-nodes 4] [-sync pipelined|seq|bcast]
//	                [-map cyclic|block] [-flow one-active|eager] [-verify]
//	halrun dist     -listen ADDR [-net unix|tcp] [-workers 2] [-nodes 8]
//	                [-app hopscotch|fib] [-n 18] [-rounds 3]        (leader)
//	halrun dist     -join ADDR [-net unix|tcp]                      (worker)
//
// dist runs ONE process of a multi-process machine over a socket mesh;
// run the leader and -workers workers concurrently (see dist.go).
//
// Every subcommand also accepts -faults and -fault-seed to run the
// workload over links that keep being cut and replayed (see faults.go);
// the run then reports a recovery summary.  The observability flags -trace-out,
// -flight-out, and -debug-addr (see observe.go) stream a Chrome trace,
// arm the stall flight recorder, and serve live statistics over HTTP.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hal"
	"hal/internal/amnet"
	"hal/internal/apps/cannon"
	"hal/internal/apps/cholesky"
	"hal/internal/apps/fib"
	"hal/internal/apps/pagerank"
	"hal/internal/apps/quad"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "fib":
		err = runFib(os.Args[2:])
	case "quad":
		err = runQuad(os.Args[2:])
	case "pagerank":
		err = runPagerank(os.Args[2:])
	case "cannon":
		err = runCannon(os.Args[2:])
	case "cholesky":
		err = runCholesky(os.Args[2:])
	case "dist":
		err = runDist(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "halrun:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: halrun {fib|quad|pagerank|cannon|cholesky|dist} [flags]   (-h per subcommand)")
	os.Exit(2)
}

// appRun runs one workload on cfg and returns its result lines, the
// machine's statistics and the wall time (both also when err is set and
// the machine ran).
type appRun func(cfg hal.Config) (summary string, stats hal.MachineStats, wall time.Duration, err error)

// shell is what every workload subcommand shares: it adds -stats and the
// fault and observability flags to the subcommand's own fs and parses
// args, asks configure for the machine configuration (and the validation
// of the subcommand's options), applies the shared flags to it, runs the
// workload, and reports: summary, statistics, observability errors, and
// the recovery line under -faults.
func shell(fs *flag.FlagSet, args []string, configure func() (hal.Config, error), run appRun) error {
	stats := fs.Bool("stats", false, "print runtime statistics")
	applyFaults := faultFlags(fs)
	applyObs, finishObs := obsFlags(fs)
	_ = fs.Parse(args)

	cfg, err := configure()
	if err != nil {
		return err
	}
	faulty, err := applyFaults(&cfg)
	if err != nil {
		return err
	}
	if err := applyObs(&cfg); err != nil {
		return err
	}
	summary, st, wall, err := run(cfg)
	obsErr := finishObs()
	if err != nil {
		reportRecovery(faulty, st, wall)
		return err
	}
	fmt.Print(summary)
	if *stats {
		fmt.Print(st)
	}
	reportRecovery(faulty, st, wall)
	return obsErr
}

func runFib(args []string) error {
	fs := flag.NewFlagSet("fib", flag.ExitOnError)
	n := fs.Int("n", 20, "fibonacci index")
	nodes := fs.Int("nodes", 4, "simulated nodes")
	lb := fs.Bool("lb", true, "dynamic load balancing")
	place := fs.String("place", "dynamic", "child placement: dynamic, local, random")
	grain := fs.Float64("grain", 1, "per-call compute in µs")

	var p fib.Placement
	return shell(fs, args, func() (hal.Config, error) {
		switch *place {
		case "dynamic":
			p = fib.PlaceAuto
		case "local":
			p = fib.PlaceLocal
		case "random":
			p = fib.PlaceRandom
		default:
			return hal.Config{}, fmt.Errorf("unknown placement %q", *place)
		}
		cfg := hal.DefaultConfig(*nodes)
		cfg.LoadBalance = *lb
		return cfg, nil
	}, func(cfg hal.Config) (string, hal.MachineStats, time.Duration, error) {
		res, err := fib.Run(cfg, fib.Config{N: *n, GrainUS: *grain, Place: p})
		return fmt.Sprintf("fib(%d) = %d  (%d actor calls)\nnodes=%d lb=%v place=%s: virtual %v, wall %v\n",
			*n, res.Value, res.Calls, *nodes, *lb, p, res.Virtual, res.Wall), res.Stats, res.Wall, err
	})
}

func runQuad(args []string) error {
	fs := flag.NewFlagSet("quad", flag.ExitOnError)
	eps := fs.Float64("eps", 1e-6, "integration tolerance")
	nodes := fs.Int("nodes", 4, "simulated nodes")
	place := fs.String("place", "dynamic", "refinement placement: dynamic, partitioned, random")

	var p quad.Placement
	return shell(fs, args, func() (hal.Config, error) {
		lb := false
		switch *place {
		case "dynamic":
			p, lb = quad.PlaceDynamic, true
		case "partitioned":
			p = quad.PlacePartitioned
		case "random":
			p = quad.PlaceRandom
		default:
			return hal.Config{}, fmt.Errorf("unknown placement %q", *place)
		}
		cfg := hal.DefaultConfig(*nodes)
		cfg.LoadBalance = lb
		return cfg, nil
	}, func(cfg hal.Config) (string, hal.MachineStats, time.Duration, error) {
		res, err := quad.Run(cfg, quad.Config{Eps: *eps, Place: p})
		return fmt.Sprintf("∫ sin(1/(x+1e-3)) dx over [0,1] = %.9f  (error vs reference %.2g)\nnodes=%d place=%s: virtual %v, wall %v\n",
			res.Value, res.Err, *nodes, p, res.Virtual, res.Wall), res.Stats, res.Wall, err
	})
}

func runPagerank(args []string) error {
	fs := flag.NewFlagSet("pagerank", flag.ExitOnError)
	n := fs.Int("n", 2000, "vertices")
	deg := fs.Int("deg", 8, "mean out-degree")
	iters := fs.Int("iters", 20, "power iterations")
	nodes := fs.Int("nodes", 4, "simulated nodes (= graph parts)")
	verify := fs.Bool("verify", false, "check ranks against the sequential reference")

	return shell(fs, args, func() (hal.Config, error) {
		return hal.DefaultConfig(*nodes), nil
	}, func(cfg hal.Config) (string, hal.MachineStats, time.Duration, error) {
		res, err := pagerank.Run(cfg, pagerank.Config{N: *n, AvgDeg: *deg, Iters: *iters}, *verify)
		top, topRank := 0, 0.0
		for i, r := range res.Ranks {
			if r > topRank {
				top, topRank = i, r
			}
		}
		summary := fmt.Sprintf("pagerank: %d vertices, %d iterations on %d parts: virtual %v, wall %v\ntop vertex %d with rank %.6f\n",
			*n, *iters, *nodes, res.Virtual, res.Wall, top, topRank)
		if *verify {
			summary += fmt.Sprintf("max |rank - reference| = %g\n", res.MaxErr)
		}
		return summary, res.Stats, res.Wall, err
	})
}

func runCannon(args []string) error {
	fs := flag.NewFlagSet("cannon", flag.ExitOnError)
	n := fs.Int("n", 240, "matrix dimension")
	grid := fs.Int("grid", 4, "grid edge p (p*p nodes)")
	verify := fs.Bool("verify", false, "check the product against the sequential reference")

	return shell(fs, args, func() (hal.Config, error) {
		return hal.DefaultConfig(*grid * *grid), nil
	}, func(cfg hal.Config) (string, hal.MachineStats, time.Duration, error) {
		res, err := cannon.Run(cfg, cannon.Config{N: *n, P: *grid}, *verify)
		summary := fmt.Sprintf("cannon %dx%d on %dx%d grid: virtual %v (%.1f MFLOPS), wall %v\n",
			*n, *n, *grid, *grid, res.Virtual, res.MFlops, res.Wall)
		if *verify {
			summary += fmt.Sprintf("max |C - A*B| = %g\n", res.MaxErr)
		}
		return summary, res.Stats, res.Wall, err
	})
}

func runCholesky(args []string) error {
	fs := flag.NewFlagSet("cholesky", flag.ExitOnError)
	n := fs.Int("n", 256, "matrix dimension")
	b := fs.Int("b", 16, "panel width")
	nodes := fs.Int("nodes", 4, "simulated nodes")
	syncName := fs.String("sync", "pipelined", "synchronization: pipelined, seq, bcast")
	mapName := fs.String("map", "cyclic", "panel mapping: cyclic, block")
	flowName := fs.String("flow", "one-active", "bulk flow control: one-active (one inbound transfer granted per node at a time) or eager (no handshake)")
	verify := fs.Bool("verify", false, "check L*Lt against the input")

	var sync cholesky.Sync
	var mapping cholesky.Mapping
	return shell(fs, args, func() (hal.Config, error) {
		switch *syncName {
		case "pipelined":
			sync = cholesky.Pipelined
		case "seq":
			sync = cholesky.GlobalSeq
		case "bcast":
			sync = cholesky.GlobalBcast
		default:
			return hal.Config{}, fmt.Errorf("unknown sync %q", *syncName)
		}
		switch *mapName {
		case "cyclic":
			mapping = cholesky.Cyclic
		case "block":
			mapping = cholesky.Block
		default:
			return hal.Config{}, fmt.Errorf("unknown mapping %q", *mapName)
		}
		cfg := hal.DefaultConfig(*nodes)
		switch *flowName {
		case "one-active":
			cfg.Flow = amnet.FlowOneActive
		case "eager":
			cfg.Flow = amnet.FlowEager
		default:
			return hal.Config{}, fmt.Errorf("unknown flow mode %q", *flowName)
		}
		return cfg, nil
	}, func(cfg hal.Config) (string, hal.MachineStats, time.Duration, error) {
		res, err := cholesky.Run(cfg, cholesky.Config{N: *n, B: *b, Sync: sync, Mapping: mapping}, *verify)
		summary := fmt.Sprintf("cholesky %dx%d (b=%d) %s/%s flow=%s on %d nodes: virtual %v, wall %v\n",
			*n, *n, *b, sync, mapping, *flowName, *nodes, res.Virtual, res.Wall)
		if *verify {
			summary += fmt.Sprintf("max |L*Lt - A| = %g\n", res.MaxErr)
		}
		return summary, res.Stats, res.Wall, err
	})
}
