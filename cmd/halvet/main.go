// Command halvet is the HAL runtime's invariant checker: a multichecker
// driving the four analyzers in internal/analysis (handlernoblock,
// poolowner, endpointaffinity, vtclock), plus the staleness sweep over
// suppression comments.
//
// Run it from the module root:
//
//	halvet ./...
//
// It sweeps for stale suppression comments (disable with -stale=false),
// can render findings as a SARIF 2.1.0 log for GitHub code scanning with
// -sarif <file> (use "-" for stdout), and can report per-analyzer wall
// time with -timing (add -timing-budget to turn a slow analyzer into a
// failure — CI uses this to catch a summary-layer fixed point that
// stopped converging quickly).  Dependencies inside the module are
// analyzed first for their facts, so cross-package blocking paths are
// found.
//
// Exit status: 0 clean, 1 internal error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hal/internal/analysis"
)

func main() {
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this `file` (\"-\" for stdout)")
	staleSweep := flag.Bool("stale", true, "flag suppression comments that no longer suppress anything")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	timingBudget := flag.Duration("timing-budget", 0, "fail if any single analyzer's total wall time exceeds this `duration` (0 disables; implies -timing)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: halvet [-sarif file] [-stale=false] [-timing] [-timing-budget 60s] ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	os.Exit(run(flag.Args(), analysis.Suite(), *sarifPath, *staleSweep, *timing, *timingBudget))
}

// run analyzes package patterns in the current module.
func run(patterns []string, suite []*analysis.Analyzer, sarifPath string, staleSweep, timing bool, timingBudget time.Duration) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "halvet:", err)
		return 1
	}
	var timings analysis.AnalyzerTimings
	if timing || timingBudget > 0 {
		timings = analysis.AnalyzerTimings{}
	}
	findings, err := analysis.AnalyzeModule(wd, patterns, suite, staleSweep, timings)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halvet:", err)
		return 1
	}
	overBudget := false
	if timings != nil {
		names := make([]string, 0, len(timings))
		for name := range timings {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return timings[names[i]] > timings[names[j]] })
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "halvet: timing: %-16s %v\n", name, timings[name].Round(time.Millisecond))
			if timingBudget > 0 && timings[name] > timingBudget {
				fmt.Fprintf(os.Stderr, "halvet: timing: analyzer %s exceeded the %v budget\n", name, timingBudget)
				overBudget = true
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		return findings[i].Pos.Offset < findings[j].Pos.Offset
	})
	if sarifPath != "" {
		blob, err := analysis.EncodeSARIF(findings, suite, wd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "halvet:", err)
			return 1
		}
		blob = append(blob, '\n')
		if sarifPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(sarifPath, blob, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "halvet:", err)
			return 1
		}
	}
	for _, f := range findings {
		f.Pos.Filename = relTo(wd, f.Pos.Filename)
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 || overBudget {
		return 2
	}
	return 0
}

func relTo(wd, name string) string {
	if r, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return name
}
