package analysis

import (
	"go/ast"
	"strings"
)

// VTClock enforces the virtual-time discipline of the simulation kernel:
// inside the VT-governed packages (internal/core, internal/amnet,
// internal/sched, internal/wsteal) the simulation's only clock is the
// virtual one (core/vtime.go).  Any host wall-clock operation — time.Now,
// time.Since, time.Sleep, timer/ticker construction — observed by kernel
// logic makes trajectory numbers depend on host scheduling and breaks
// run-to-run determinism, so every such call must either be removed or
// carry a //halvet:allowwallclock <why> annotation (on the line, the line
// above, or the enclosing function's doc comment).  The sanctioned
// classes, pinned by PR 5's "host wall-clock only for observability"
// rationale: latency histograms (internal/hist observes host
// microseconds), fault-injection retry/pause pacing (VT stands still on
// an idle node, so recovery timing must come from the host clock), and
// stall watchdogs.
//
// A package outside the built-in set opts in with a file-level
// //halvet:vtgoverned directive, which is how the golden fixtures
// exercise the rule.
//
// Tests — host-side harnesses that legitimately time out, pace, and
// measure on the host clock — are never loaded: the driver analyzes a
// package's GoFiles only.
var VTClock = &Analyzer{
	Name: "vtclock",
	Doc:  "flag host wall-clock operations in VT-governed packages lacking a //halvet:allowwallclock justification",
	Run:  runVTClock,
}

// vtGovernedSuffixes are the import-path tails of the VT-governed
// packages, matched by suffix so the rule keys off the real packages both
// in this module and in any future module layout.
var vtGovernedSuffixes = [...]string{
	"internal/core",
	"internal/amnet",
	"internal/sched",
	"internal/wsteal",
}

// vtBanned maps time-package calls to what makes them hostile to virtual
// time.  time.Duration arithmetic and time.Time method calls on values
// obtained at sanctioned sites are fine — the ban is on minting host-clock
// observations, not on carrying them.
var vtBanned = map[string]string{
	"time.Now":       "reads the host wall clock",
	"time.Since":     "reads the host wall clock",
	"time.Until":     "reads the host wall clock",
	"time.Sleep":     "parks on host time",
	"time.After":     "schedules on host time",
	"time.Tick":      "schedules on host time (and leaks the ticker)",
	"time.NewTicker": "schedules on host time",
	"time.NewTimer":  "schedules on host time",
	"time.AfterFunc": "schedules on host time",
}

func runVTClock(pass *Pass) error {
	if pass.FactsOnly {
		return nil // purely intra-package: no facts to export
	}
	if !vtGovernedPkg(pass) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if dk, ok := pass.funcDirective("allowwallclock", fd); ok {
					// Counterfactual staleness check: the function-level
					// directive is live only while the body still contains
					// a wall-clock call.
					if fd.Body != nil && vtFirstBanned(pass, fd.Body) != "" {
						pass.UseKey(dk)
					}
					continue
				}
			}
			vtCheckDecl(pass, file, decl)
		}
	}
	return nil
}

// vtCheckDecl flags every banned call in one declaration that is not
// covered by a line-level allowwallclock directive.
func vtCheckDecl(pass *Pass, file *ast.File, decl ast.Decl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		key := fn.FullName()
		why, banned := vtBanned[key]
		if !banned {
			return true
		}
		if pass.allowAt("allowwallclock", file, pass.Fset.Position(call.Pos()).Line) {
			return true
		}
		pass.Report(call.Pos(),
			"wall-clock %s in a VT-governed package (%s): virtual time is the simulation's only clock; fix it or annotate the sanctioned site //halvet:allowwallclock <why>",
			key, why)
		return true
	})
}

// vtFirstBanned returns the key of the first banned call in body, "" if
// none.
func vtFirstBanned(pass *Pass, body ast.Node) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := staticCallee(pass.TypesInfo, call); fn != nil {
				if _, banned := vtBanned[fn.FullName()]; banned {
					found = fn.FullName()
					return false
				}
			}
		}
		return true
	})
	return found
}

// vtGovernedPkg reports whether the pass's package is under the VT-clock
// discipline: one of the built-in kernel packages, or any package with a
// //halvet:vtgoverned file directive.
func vtGovernedPkg(pass *Pass) bool {
	p := pass.Pkg.Path()
	for _, s := range vtGovernedSuffixes {
		if p == s || strings.HasSuffix(p, "/"+s) {
			return true
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == "//halvet:vtgoverned" ||
					strings.HasPrefix(c.Text, "//halvet:vtgoverned ") {
					return true
				}
			}
		}
	}
	return false
}
