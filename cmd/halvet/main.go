// Command halvet is the HAL runtime's invariant checker: a multichecker
// driving the five analyzers in internal/analysis (handlernoblock,
// poolowner, endpointaffinity, vtclock, ringowner), plus the
// driver's staleness sweep over suppression comments.
//
// Two ways to run it:
//
//	halvet ./...                      # standalone, from the module root
//	go vet -vettool=$(which halvet) ./...
//
// Standalone mode also sweeps for stale suppression comments (disable
// with -stale=false), can render findings as a SARIF 2.1.0 log for
// GitHub code scanning with -sarif <file> (use "-" for stdout), and can
// report per-analyzer wall time with -timing (add -timing-budget to turn
// a slow analyzer into a failure — CI uses this to catch a summary-layer
// fixed point that stopped converging quickly).
//
// The second form speaks the toolchain's unitchecker protocol: `go vet`
// interrogates the binary with -V=full (build-cache keying) and -flags
// (supported analyzer flags), then invokes it once per package with a JSON
// config file ending in .cfg, caching the per-package fact files (vetx)
// it writes.  Facts carry handler-reachability across packages, so
// cross-package blocking paths are found in both modes.
//
// Exit status: 0 clean, 1 internal error, 2 findings.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hal/internal/analysis"
)

func main() {
	// -V=full must work before flag.Parse sees anything else: the go
	// command probes it to key the build cache on this binary.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			printVersion()
			return
		}
		if arg == "-flags" || arg == "--flags" {
			printFlagsJSON()
			return
		}
	}

	enabled := map[string]*bool{}
	for _, az := range analysis.Suite() {
		enabled[az.Name] = flag.Bool(az.Name, true, "run the "+az.Name+" analyzer")
	}
	sarifPath := flag.String("sarif", "", "standalone mode: also write findings as SARIF 2.1.0 to this `file` (\"-\" for stdout)")
	staleSweep := flag.Bool("stale", true, "standalone mode: flag suppression comments that no longer suppress anything")
	timing := flag.Bool("timing", false, "standalone mode: print per-analyzer wall time to stderr")
	timingBudget := flag.Duration("timing-budget", 0, "standalone mode: fail if any single analyzer's total wall time exceeds this `duration` (0 disables; implies -timing)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: halvet [-<analyzer>=false ...] [-sarif file] [-stale=false] [-timing] [-timing-budget 60s] ./...\n")
		fmt.Fprintf(os.Stderr, "   or: go vet -vettool=$(which halvet) ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var suite []*analysis.Analyzer
	for _, az := range analysis.Suite() {
		if *enabled[az.Name] {
			suite = append(suite, az)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0], suite))
	}
	os.Exit(runStandalone(args, suite, *sarifPath, *staleSweep, *timing, *timingBudget))
}

// runStandalone analyzes package patterns in the current module.
func runStandalone(patterns []string, suite []*analysis.Analyzer, sarifPath string, staleSweep, timing bool, timingBudget time.Duration) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "halvet:", err)
		return 1
	}
	var timings analysis.AnalyzerTimings
	if timing || timingBudget > 0 {
		timings = analysis.AnalyzerTimings{}
	}
	findings, err := analysis.AnalyzeModuleTimed(wd, patterns, suite, staleSweep, timings)
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

// printVersion emits the line `go vet` parses for cache keying.  The
// "devel" form requires a buildID field; hashing the executable makes the
// vet cache invalidate whenever halvet itself is rebuilt, so new checks
// re-run over already-vetted packages.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:32]
			}
			f.Close()
		}
	}
	fmt.Printf("halvet version devel buildID=%s/%s\n", id, id)
}

// printFlagsJSON describes the analyzer flags to `go vet` (which forwards
// matching command-line flags back to us).
func printFlagsJSON() {
	fmt.Print("[")
	for i, az := range analysis.Suite() {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Printf(`{"Name":%q,"Bool":true,"Usage":%q}`, az.Name, "run the "+az.Name+" analyzer")
	}
	fmt.Println("]")
}
