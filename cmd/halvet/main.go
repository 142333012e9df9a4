// Command halvet is the HAL runtime's invariant checker: a multichecker
// driving the three analyzers in internal/analysis (handlernoblock,
// endpointaffinity, vtclock), plus the staleness sweep over suppression
// comments.
//
// Run it from the module root:
//
//	halvet ./...
//
// -sarif <file> also renders the findings as a SARIF 2.1.0 log for GitHub
// code scanning (use "-" for stdout).  Dependencies inside the module are
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

	"hal/internal/analysis"
)

func main() {
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this `file` (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: halvet [-sarif file] ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	os.Exit(run(flag.Args(), analysis.Suite(), *sarifPath))
}

// run analyzes package patterns in the current module.
func run(patterns []string, suite []*analysis.Analyzer, sarifPath string) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "halvet:", err)
		return 1
	}
	findings, err := analysis.AnalyzeModule(wd, patterns, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halvet:", err)
		return 1
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
	if len(findings) > 0 {
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
