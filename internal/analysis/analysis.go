// Package analysis is `halvet`: a static-analysis suite that mechanically
// enforces the runtime invariants the rest of this repository states only
// in prose — handlers never block (amnet package comment), an Endpoint's
// receive side belongs to one goroutine (amnet.Endpoint doc), and the
// simulation's only clock is virtual time (vtclock).
//
// The framework below is a deliberately small, dependency-free mirror of
// golang.org/x/tools/go/analysis: the same Analyzer/Pass/Diagnostic shape,
// per-package runs, and serialized cross-package facts.  It exists because
// this module builds hermetically (no module downloads); if x/tools ever
// becomes available the analyzers port mechanically.
//
// Annotation mechanisms, each requiring a justification:
//
//	//halvet:allowblock <reason>
//	    on a function declaration (or immediately above a statement) marks
//	    a blocking operation as sanctioned, stopping handlernoblock's
//	    reachability propagation through it.  Reserved for patterns whose
//	    progress argument lives outside the type system, like the CMAM
//	    poll-while-stalled discipline in amnet's Endpoint.stall.
//
//	//halvet:allowwallclock <reason>
//	    on a function declaration (or immediately above a statement)
//	    sanctions a host wall-clock operation (time.Now and friends)
//	    inside a VT-governed package; reserved for observability
//	    instruments and host-level pacing that virtual time cannot
//	    express (vtclock analyzer).
//
// Suppressions are themselves checked: the driver's staleness sweep
// (StaleDirectives) reports any suppression comment that no longer
// suppressed anything during the run — a stale annotation rots into
// blanket permission for whatever lands on that line next.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.  Run inspects a single package through its
// Pass and reports diagnostics; cross-package state travels only through
// facts (see Pass.ExportFacts / Pass.ImportFacts).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// PackageFacts is the serialized cross-package state of one package:
// analyzer name -> that analyzer's opaque fact blob.
type PackageFacts map[string]json.RawMessage

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// FactsOnly is set when the driver needs only this package's exported
	// facts (a dependency of the packages asked about): Report calls are
	// dropped.  Analyzers may skip diagnostic-only work when it is set.
	FactsOnly bool

	// depFacts returns the named dependency package's fact blob for this
	// analyzer, nil if the dependency exported none.
	depFacts func(pkgPath, analyzer string) json.RawMessage

	// used records which suppression directives fired during this pass;
	// shared across the analyzers of one driver run so StaleDirectives can
	// flag the ones nothing consulted.  Nil when the driver does not sweep.
	used map[DirectiveKey]bool

	diags []Diagnostic
	facts json.RawMessage
}

// Report records one diagnostic (dropped in FactsOnly mode).
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	if p.FactsOnly {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFacts serializes v as this package's fact blob for the running
// analyzer.  At most one blob per (package, analyzer).
func (p *Pass) ExportFacts(v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: exporting facts for %s: %v", p.Analyzer.Name, p.Pkg.Path(), err)
	}
	p.facts = blob
	return nil
}

// ImportFacts unmarshals the fact blob the running analyzer exported when
// it analyzed pkgPath, reporting whether one existed.
func (p *Pass) ImportFacts(pkgPath string, into any) bool {
	if p.depFacts == nil {
		return false
	}
	blob := p.depFacts(pkgPath, p.Analyzer.Name)
	if blob == nil {
		return false
	}
	return json.Unmarshal(blob, into) == nil
}

// runOne executes a single analyzer over a loaded package and returns its
// diagnostics and exported facts.  used, if non-nil, accumulates the
// suppression directives that fired.
func runOne(az *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, factsOnly bool, depFacts func(pkgPath, analyzer string) json.RawMessage,
	used map[DirectiveKey]bool,
) ([]Diagnostic, json.RawMessage, error) {
	pass := &Pass{
		Analyzer:  az,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		FactsOnly: factsOnly,
		depFacts:  depFacts,
		used:      used,
	}
	if err := az.Run(pass); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %v", az.Name, pkg.Path(), err)
	}
	diags := pass.diags
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, pass.facts, nil
}

// --- directives ----------------------------------------------------------

// DirectiveKey identifies one annotation comment by the position of its
// own line, which is stable across the analyzers of a run.
type DirectiveKey struct {
	File string
	Line int
}

// Directive is one parsed halvet suppression comment.
type Directive struct {
	Key    DirectiveKey
	Pos    token.Pos
	Kind   string // "allowblock" or "allowwallclock"
	Reason string
}

// parseDirective recognizes the suppression comment forms.  A directive
// without a reason is not honored (ok=false): unexplained suppressions are
// exactly the convention rot this suite exists to prevent.
func parseDirective(text string) (kind, reason string, ok bool) {
	for _, k := range [...]string{"allowblock", "allowwallclock"} {
		if rest, found := strings.CutPrefix(text, "//halvet:"+k); found {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", "", false
			}
			return k, strings.Join(fields, " "), true
		}
	}
	return "", "", false
}

// collectDirectives parses every suppression comment in files.
func collectDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, Directive{
					Key:    DirectiveKey{File: pos.Filename, Line: pos.Line},
					Pos:    c.Pos(),
					Kind:   kind,
					Reason: reason,
				})
			}
		}
	}
	return out
}

// allowAt reports whether an allow directive of the given kind covers the
// given line of file (the directive's own line, for trailing comments, or
// the line above), recording a hit for the staleness sweep.
func (p *Pass) allowAt(kind string, file *ast.File, line int) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			k, _, ok := parseDirective(c.Text)
			if !ok || k != kind {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			if pos.Line == line || pos.Line == line-1 {
				p.UseKey(DirectiveKey{File: pos.Filename, Line: pos.Line})
				return true
			}
		}
	}
	return false
}

// funcDirective reports whether the function declaration carries an allow
// directive of the given kind in its doc comment, returning its key.  The
// caller marks it used (via UseKey) only when the directive demonstrably
// suppressed something, so a directive on a function that no longer needs
// it is reported stale.
func (p *Pass) funcDirective(kind string, fd *ast.FuncDecl) (DirectiveKey, bool) {
	if fd.Doc == nil {
		return DirectiveKey{}, false
	}
	for _, c := range fd.Doc.List {
		if k, _, ok := parseDirective(c.Text); ok && k == kind {
			pos := p.Fset.Position(c.Pos())
			return DirectiveKey{File: pos.Filename, Line: pos.Line}, true
		}
	}
	return DirectiveKey{}, false
}

// UseKey marks a directive key as live for the staleness sweep.
func (p *Pass) UseKey(k DirectiveKey) {
	if p.used != nil {
		p.used[k] = true
	}
}

// StaleDirectives returns one Finding (analyzer "staleallow") per
// suppression comment in files that did not suppress anything during the
// run that populated used.  A directive whose analyzer is outside suite is
// skipped: staleness can only be judged for checks that ran.
func StaleDirectives(fset *token.FileSet, files []*ast.File, suite []*Analyzer, used map[DirectiveKey]bool) []Finding {
	inSuite := map[string]bool{}
	for _, az := range suite {
		inSuite[az.Name] = true
	}
	owner := map[string]string{
		"allowblock":     HandlerNoBlock.Name,
		"allowwallclock": VTClock.Name,
	}
	var out []Finding
	for _, d := range collectDirectives(fset, files) {
		if used[d.Key] || !inSuite[owner[d.Kind]] {
			continue
		}
		out = append(out, Finding{
			Pos:      fset.Position(d.Pos),
			Analyzer: "staleallow",
			Message: fmt.Sprintf("stale suppression: //halvet:%s no longer suppresses any diagnostic; delete it before it licenses whatever lands here next (reason was: %s)",
				d.Kind, d.Reason),
		})
	}
	return out
}

// shortPos renders a position as "file.go:line" for diagnostic chains.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
