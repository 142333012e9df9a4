// Command benchmark is halbench: six closed-loop workloads over the HAL
// runtime, six end-to-end metrics on each, and a traced pass that times
// calls into every module's public functions.  README.md has the
// catalogue, the noise rules and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is one workload's numbers, keyed like the metric catalogues.
type report struct {
	workload          *workload
	attempted, failed int64
	roundSec          []float64 // sorted
	values            map[string]float64
}

const (
	// An end-to-end window is split over rigsPerWindow rigs built one
	// after another, each with warmRounds untimed rounds: the set-up is
	// then measured rigsPerWindow times, seconds apart, by the very rigs
	// that are needed anyway, and no rig's luck with memory layout decides
	// a run.
	rigsPerWindow = 3
	warmRounds    = 5
)

// endToEndOpts is the share of a window one of its rigs runs.
func endToEndOpts(seconds float64, minRounds int) passOpts {
	return passOpts{
		warm:      warmRounds,
		minRounds: (minRounds + rigsPerWindow - 1) / rigsPerWindow,
		seconds:   seconds / rigsPerWindow,
	}
}

// runEndToEnd measures the end-to-end metrics of one workload, untraced,
// on one P (noise rule 1).
func runEndToEnd(w *workload, e *env, seconds float64, minRounds int) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newPass()
	for i := 0; i < rigsPerWindow; i++ {
		if err := p.rig(w, e, endToEndOpts(seconds, minRounds)); err != nil {
			return nil, err
		}
	}
	return p.endToEnd(w), nil
}

// endToEnd derives the end-to-end metrics from a window's rounds.
func (p *pass) endToEnd(w *workload) *report {
	return &report{
		workload: w, attempted: p.ops, failed: p.failed,
		roundSec: sortedCopy(p.roundSec()),
		values: map[string]float64{
			"setup_s":        median(p.setupSec),
			"ops_per_s":      p.opsPerSec(),
			"lat_p50_us":     percentile(p.latencies(p.kept()), 50),
			"allocs_per_op":  median(p.column(func(r *roundRec) float64 { return r.allocs })),
			"alloc_b_per_op": median(p.column(func(r *roundRec) float64 { return r.bytes })),
			"heap_mb":        median(p.heapMB),
		},
	}
}

// normalizeArgs lets -trace be given bare, as -trace=1, or — as the
// driver does — as "--trace 1", which package flag would otherwise read
// as a boolean followed by a positional argument.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// gitCommit names the commit when run from a git work tree; the driver's
// checkout is not one, and no process is started there.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printHeader(seed int64, seconds float64, trace bool) {
	fmt.Printf("halbench seed=%d seconds=%g trace=%v commit=%s %s nproc=%d gomaxprocs(end-to-end)=1\n",
		seed, seconds, trace, gitCommit(), runtime.Version(), runtime.NumCPU())
	fmt.Print("bounds:")
	for _, m := range endToEnd {
		fmt.Printf(" %s=%g%%", m.name, m.bound*100)
	}
	fmt.Println()
}

func printReport(r *report, metrics []metric) {
	fmt.Printf("%s: %d %ss attempted, %d failed, %d rounds", r.workload.name, r.attempted, r.workload.op, r.failed, len(r.roundSec))
	for _, q := range []float64{0, 10, 25, 50, 75} {
		fmt.Printf(", p%g %.2f ms", q, percentile(r.roundSec, q)*1e3)
	}
	fmt.Printf(" (IQR %.2f%%)\n", iqrPct(r.roundSec))
	if r.workload.ungated != "" {
		fmt.Printf("  not in BENCHMARK.json: %s\n", r.workload.ungated)
	}
	for _, m := range metrics {
		fmt.Printf("  %-28s %16.4f %s\n", m.name, r.values[m.name], m.unit)
	}
}

// printSelfTimes lists where the traced run's wall time went, by span
// name, largest first.
func printSelfTimes(l *spanLog) {
	self := selfTimes(l.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("span self time:")
	for _, name := range names[:min(len(names), 12)] {
		fmt.Printf("  %-28s %10.1f ms\n", name, float64(self[name])/1e6)
	}
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var name string
	fs.StringVar(&name, "workload", "", "run one workload (default: all six)")
	fs.StringVar(&name, "w", "", "short for -workload")
	seed := fs.Int64("seed", 1, "workload seed: Config.Seed, token start positions, nomad's sender-to-target matching")
	seconds := fs.Float64("seconds", 10, "length of each workload's timed window")
	trace := fs.Bool("trace", false, "report the per-layer metrics from a traced pass and write <out>/trace.json")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	out := fs.String("out", "benchmark/out", "directory for unix sockets and trace.json")
	_ = fs.Parse(normalizeArgs(os.Args[1:])) // ExitOnError

	ws := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	printHeader(*seed, *seconds, *trace)
	newEnv := func() *env { return &env{seed: *seed, scale: 1, outDir: *out} }

	if *selfcheck {
		if !selfCheck(ws, newEnv, *seconds) {
			os.Exit(1)
		}
		return
	}

	res := result{Correct: true, Metrics: map[string]value{}}
	metrics := endToEnd
	var spans *spanLog
	var rungs map[string]float64
	if *trace {
		metrics = perLayer
		spans = newSpanLog()
		e := newEnv()
		e.spans = spans
		var err error
		if rungs, err = runLadder(e); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ladder:", err)
			os.Exit(1)
		}
	}
	for _, w := range ws {
		var r *report
		var err error
		if *trace {
			e := newEnv()
			e.spans = spans
			r, err = runTraced(w, e, rungs, w.traceRounds)
		} else {
			r, err = runEndToEnd(w, newEnv(), *seconds, w.minRounds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printReport(r, metrics)
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range metrics {
			key := m.name
			if len(ws) > 1 {
				key = w.name + "/" + m.name
			}
			res.Metrics[key] = value{r.values[m.name], m.unit}
		}
	}
	if *trace {
		if err := spans.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printSelfTimes(spans)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
