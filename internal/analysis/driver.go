package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
)

// Suite returns the three halvet analyzers in their canonical order.
func Suite() []*Analyzer {
	return []*Analyzer{
		HandlerNoBlock,
		EndpointAffinity,
		VTClock,
	}
}

// Finding is a resolved diagnostic: position rendered against the driver's
// file set.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (halvet-%s)", f.Pos, f.Message, f.Analyzer)
}

// AnalyzeModule loads the packages matching patterns (relative to dir),
// runs the analyzers over each non-dependency match, and returns every
// finding.  Dependencies inside the same module are analyzed in
// FactsOnly mode first so cross-package facts (handler reachability) are
// available.  Every suppression comment in a pattern-matched package that
// suppressed nothing is reported as a "staleallow" finding.
func AnalyzeModule(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := exportIndex(pkgs)
	fset := token.NewFileSet()
	allFacts := map[string]PackageFacts{} // package path -> facts
	depFacts := func(pkgPath, analyzer string) json.RawMessage {
		return allFacts[pkgPath][analyzer]
	}
	used := map[DirectiveKey]bool{}

	var findings []Finding
	for _, lp := range pkgs { // go list -deps order: dependencies first
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue // std blocking behavior comes from the builtin table
		}
		loaded, err := Check(fset, lp.ImportPath, lp.GoFiles, func(p string) string { return exports[p] })
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		found, facts, err := AnalyzeUnit(loaded, analyzers, lp.DepOnly, depFacts, used)
		if err != nil {
			return nil, err
		}
		findings = append(findings, found...)
		allFacts[lp.ImportPath] = facts
		if !lp.DepOnly {
			findings = append(findings, StaleDirectives(fset, loaded.Files, analyzers, used)...)
		}
	}
	return findings, nil
}

// AnalyzeUnit runs the analyzers over one already-loaded package with the
// given dependency facts, returning diagnostics and the package's exported
// facts: AnalyzeModule's per-package step, and the fixture harness's entry
// point.  used, if non-nil, accumulates fired suppression directives for a
// subsequent StaleDirectives sweep.
func AnalyzeUnit(lp *LoadedPackage, analyzers []*Analyzer, factsOnly bool,
	depFacts func(pkgPath, analyzer string) json.RawMessage,
	used map[DirectiveKey]bool,
) ([]Finding, PackageFacts, error) {
	facts := PackageFacts{}
	var findings []Finding
	for _, az := range analyzers {
		diags, blob, err := runOne(az, lp.Fset, lp.Files, lp.Pkg, lp.Info, factsOnly, depFacts, used)
		if err != nil {
			return nil, nil, err
		}
		if blob != nil {
			facts[az.Name] = blob
		}
		for _, d := range diags {
			findings = append(findings, Finding{
				Pos:      lp.Fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	return findings, facts, nil
}
