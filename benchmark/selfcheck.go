package main

import (
	"fmt"
	"math"
	"runtime"
)

// selfCheck measures every workload twice on the same code (A/A) and
// reports whether every end-to-end metric agrees within its bound.  The
// two windows of a workload take turns rig by rig, so a slow spell of the
// host falls on both; what is left is the benchmark's own disagreement.
// Each window's round IQR is printed beside its metrics: when a metric
// disagrees and the rounds of either window were themselves spread out,
// the host was noisy; when the rounds were tight, the metric is.  A
// workload BENCHMARK.json does not list is shown but cannot fail the check.
func selfCheck(ws []*workload, newEnv func() *env, seconds float64) bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var runs [2][]*report
	for _, w := range ws {
		sides := [2]*pass{newPass(), newPass()}
		for i := 0; i < rigsPerWindow; i++ {
			for _, p := range sides {
				if err := p.rig(w, newEnv(), endToEndOpts(seconds, w.minRounds)); err != nil {
					fmt.Println("selfcheck:", err)
					return false
				}
			}
		}
		for i, p := range sides {
			r := p.endToEnd(w)
			if r.failed > 0 {
				fmt.Printf("selfcheck: %s: %d of %d %ss failed their checks\n", w.name, r.failed, r.attempted, w.op)
				return false
			}
			runs[i] = append(runs[i], r)
		}
	}
	ok := true
	for i, w := range ws {
		a, b := runs[0][i], runs[1][i]
		fmt.Printf("%s (round IQR %.2f%% / %.2f%%)\n", w.name, iqrPct(a.roundSec), iqrPct(b.roundSec))
		for _, m := range endToEnd {
			x, y := a.values[m.name], b.values[m.name]
			diff := math.Abs(x-y) / ((x + y) / 2)
			verdict := "ok"
			switch {
			case diff <= m.bound:
			case w.ungated != "":
				verdict = "differs (not gated)"
			default:
				verdict, ok = "DIFFERS", false
			}
			fmt.Printf("  %-16s %16.4f %16.4f %-5s %6.2f%% of %g%%  %s\n", m.name, x, y, m.unit, diff*100, m.bound*100, verdict)
		}
	}
	if ok {
		fmt.Println("selfcheck: the two runs agree within every bound")
	} else {
		fmt.Println("selfcheck: FAILED")
	}
	return ok
}
