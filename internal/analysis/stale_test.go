package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleDirectives runs the whole suite over the staleallow fixture
// and checks the driver-level sweep: directives that suppressed something
// survive, the rest are flagged with their original reason.
func TestStaleDirectives(t *testing.T) {
	w, err := getWorld()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "staleallow")
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
	loaded, err := Check(w.fset, "fixture/staleallow", files, func(p string) string { return w.exports[p] })
	if err != nil {
		t.Fatal(err)
	}
	depFacts := func(pkgPath, analyzer string) json.RawMessage {
		return w.facts[pkgPath][analyzer]
	}
	used := map[DirectiveKey]bool{}
	findings, _, err := AnalyzeUnit(loaded, Suite(), false, depFacts, used)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected analyzer finding (every violation should be suppressed): %s", f)
	}

	stale := StaleDirectives(w.fset, loaded.Files, Suite(), used)
	wantStale := []string{
		"the blocking call was removed long ago", // onClean's allowblock
		"the clock read was removed",             // quiet's allowwallclock
	}
	liveReasons := []string{
		"sanctioned blocking for the test",
		"host pacing for the test",
	}
	for _, want := range wantStale {
		hit := false
		for _, f := range stale {
			if f.Analyzer != "staleallow" {
				t.Errorf("stale finding with wrong analyzer %q: %s", f.Analyzer, f)
			}
			if strings.Contains(f.Message, want) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("no stale finding for directive with reason %q; got %v", want, stale)
		}
	}
	for _, live := range liveReasons {
		for _, f := range stale {
			if strings.Contains(f.Message, live) {
				t.Errorf("directive with reason %q fired during the run but was swept as stale: %s", live, f)
			}
		}
	}
	if len(stale) != len(wantStale) {
		t.Errorf("got %d stale findings, want %d: %v", len(stale), len(wantStale), stale)
	}
}
