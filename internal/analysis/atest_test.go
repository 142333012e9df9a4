package analysis

// A miniature analysistest: fixtures live under testdata/src/<name>/ and
// declare expectations with `// want` comments on the line a diagnostic is
// reported for:
//
//	hSleepy: func(ep *amnet.Endpoint, p amnet.Packet) { // want `time\.Sleep parks the PE goroutine`
//
// Each quoted (double- or back-quoted) string is a regexp that must match
// exactly one finding's message on that line; unmatched expectations and
// unexpected findings both fail the test.  Fixtures import the real
// hal/internal/... packages, so they exercise the same type identities and
// cross-package facts the tree-wide run uses.

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureWorld is the shared module context: export data for every
// dependency and per-package facts computed deps-first, loaded once for
// all fixture tests.
type fixtureWorld struct {
	fset    *token.FileSet
	exports map[string]string
	facts   map[string]PackageFacts
}

var (
	worldOnce sync.Once
	world     *fixtureWorld
	worldErr  error
)

func getWorld() (*fixtureWorld, error) {
	worldOnce.Do(func() {
		pkgs, err := GoList("../..", "./...")
		if err != nil {
			worldErr = err
			return
		}
		w := &fixtureWorld{
			fset:    token.NewFileSet(),
			exports: exportIndex(pkgs),
			facts:   map[string]PackageFacts{},
		}
		depFacts := func(pkgPath, analyzer string) json.RawMessage {
			return w.facts[pkgPath][analyzer]
		}
		for _, lp := range pkgs { // dependencies first
			if lp.Standard || len(lp.GoFiles) == 0 {
				continue
			}
			loaded, err := Check(w.fset, lp.ImportPath, lp.GoFiles, func(p string) string { return w.exports[p] })
			if err != nil {
				worldErr = fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
				return
			}
			_, facts, err := AnalyzeUnit(loaded, Suite(), true, depFacts, nil)
			if err != nil {
				worldErr = err
				return
			}
			w.facts[lp.ImportPath] = facts
		}
		world = w
	})
	return world, worldErr
}

// runFixture analyzes testdata/src/<fixture> with one analyzer and checks
// its findings against the fixture's want comments.
func runFixture(t *testing.T, az *Analyzer, fixture string) {
	t.Helper()
	w, err := getWorld()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", fixture)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	loaded, err := Check(w.fset, "fixture/"+fixture, files, func(p string) string { return w.exports[p] })
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", fixture, err)
	}
	depFacts := func(pkgPath, analyzer string) json.RawMessage {
		return w.facts[pkgPath][analyzer]
	}
	findings, _, err := AnalyzeUnit(loaded, []*Analyzer{az}, false, depFacts, nil)
	if err != nil {
		t.Fatal(err)
	}

	wants := parseWants(t, w.fset, loaded)
	for _, f := range findings {
		hit := false
		for _, wt := range wants {
			if !wt.matched && wt.file == f.Pos.Filename && wt.line == f.Pos.Line && wt.re.MatchString(f.Message) {
				wt.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, wt := range wants {
		if !wt.matched {
			t.Errorf("%s:%d: no finding matched %q", wt.file, wt.line, wt.raw)
		}
	}
}

type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantQuoted matches one expectation pattern: a double-quoted Go string or
// a back-quoted raw string.
var wantQuoted = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, fset *token.FileSet, loaded *LoadedPackage) []*wantExpect {
	t.Helper()
	var wants []*wantExpect
	for _, f := range loaded.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				quoted := wantQuoted.FindAllString(rest, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", p.Filename, p.Line, c.Text)
				}
				for _, q := range quoted {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", p.Filename, p.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", p.Filename, p.Line, pat, err)
					}
					wants = append(wants, &wantExpect{file: p.Filename, line: p.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}
