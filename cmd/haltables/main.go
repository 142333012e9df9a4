// Command haltables regenerates the paper's evaluation tables on the
// simulated machine.
//
// Usage:
//
//	haltables [-table all|1|2|3|4|5] [flags]
//
// Scaling tables report virtual makespans under the Table 2-calibrated
// cost model; microbenchmark tables also report host wall time.
package main

import (
	"flag"
	"fmt"
	"os"

	"hal/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate (all, 1, 2, 3, 4, 5, ablations, irregular)")
	cholN := flag.Int("chol-n", 256, "table 1: matrix dimension")
	cholB := flag.Int("chol-b", 16, "table 1: panel width")
	fibN := flag.Int("fib-n", 20, "table 4: fibonacci index")
	fibGrain := flag.Float64("fib-grain", 1, "table 4: per-call compute in µs")
	matN := flag.Int("mat-n", 1024, "table 5: matrix dimension")
	skip := flag.Bool("mat-skip-compute", false, "table 5: skip real arithmetic (timing only)")
	flag.Parse()

	want := func(t string) bool { return *table == "all" || *table == t }
	failed := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "haltables:", err)
		failed = true
	}

	if want("1") {
		if res, err := bench.Table1(bench.Table1Config{N: *cholN, B: *cholB}); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if want("2") {
		if res, err := bench.Table2(); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if want("3") {
		if res, err := bench.Table3(); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if want("4") {
		if res, err := bench.Table4(bench.Table4Config{N: *fibN, GrainUS: *fibGrain}); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if want("5") {
		if res, err := bench.Table5(bench.Table5Config{N: *matN, SkipCompute: *skip}); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if want("irregular") {
		if res, err := bench.Irregular(bench.IrregularConfig{}); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if want("ablations") {
		if res, err := bench.Ablations(); err != nil {
			fail(err)
		} else {
			res.Print(os.Stdout)
			fmt.Println()
		}
	}
	if failed {
		os.Exit(1)
	}
}
