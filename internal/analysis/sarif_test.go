package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func sarifInput() []Finding {
	return []Finding{
		{
			Pos:      token.Position{Filename: "/repo/internal/core/node.go", Line: 42, Column: 7},
			Analyzer: "vtclock",
			Message:  "wall-clock time.Now in a VT-governed package",
		},
		{
			Pos:      token.Position{Filename: "/repo/internal/amnet/amnet.go", Line: 361, Column: 1},
			Analyzer: "staleallow",
			Message:  "stale suppression: //halvet:allowblock no longer suppresses any diagnostic",
		},
		{
			// Outside the root: the URI stays absolute rather than escaping
			// upward with ../ segments.
			Pos:      token.Position{Filename: "/elsewhere/x.go", Line: 1, Column: 1},
			Analyzer: "endpointaffinity",
			Message:  "endpoint \"ep\" is polled from this goroutine but the spawning goroutine also calls Send (at x.go:9)",
		},
	}
}

// TestEncodeSARIFGolden locks the exact encoder output; regenerate with
// UPDATE_GOLDEN=1 go test ./internal/analysis -run SARIFGolden.
func TestEncodeSARIFGolden(t *testing.T) {
	got, err := EncodeSARIF(sarifInput(), Suite(), "/repo")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sarif_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, append(got, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("SARIF output drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\ngot:\n%s", golden, got)
	}
}

// TestEncodeSARIFShape validates the 2.1.0 schema shape GitHub code
// scanning requires, independent of exact byte layout.
func TestEncodeSARIFShape(t *testing.T) {
	blob, err := EncodeSARIF(sarifInput(), Suite(), "/repo")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if v := doc["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := doc["$schema"].(string); s == "" {
		t.Error("$schema missing")
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "halvet" {
		t.Errorf("driver.name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	// One rule per suite analyzer plus the synthetic staleallow rule.
	if len(rules) != len(Suite())+1 {
		t.Errorf("got %d rules, want %d", len(rules), len(Suite())+1)
	}
	ruleIDs := map[string]bool{}
	for _, r := range rules {
		rm := r.(map[string]any)
		id, _ := rm["id"].(string)
		if id == "" {
			t.Fatalf("rule missing id: %v", r)
		}
		if txt := rm["shortDescription"].(map[string]any)["text"]; txt == "" {
			t.Errorf("rule %s missing shortDescription.text", id)
		}
		ruleIDs[id] = true
	}
	results := run["results"].([]any)
	if len(results) != len(sarifInput()) {
		t.Fatalf("got %d results, want %d", len(results), len(sarifInput()))
	}
	for i, r := range results {
		rm := r.(map[string]any)
		ruleID, _ := rm["ruleId"].(string)
		if !ruleIDs[ruleID] {
			t.Errorf("result %d ruleId %q not declared in rules", i, ruleID)
		}
		if rm["level"] != "error" {
			t.Errorf("result %d level = %v", i, rm["level"])
		}
		if txt := rm["message"].(map[string]any)["text"]; txt == "" {
			t.Errorf("result %d missing message.text", i)
		}
		locs := rm["locations"].([]any)
		if len(locs) != 1 {
			t.Fatalf("result %d: %d locations", i, len(locs))
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		art := phys["artifactLocation"].(map[string]any)
		uri, _ := art["uri"].(string)
		if uri == "" {
			t.Errorf("result %d missing artifactLocation.uri", i)
		}
		region := phys["region"].(map[string]any)
		if ln, _ := region["startLine"].(float64); ln < 1 {
			t.Errorf("result %d startLine = %v", i, region["startLine"])
		}
	}
	// Repo-relative URI handling: inside the root the path is relative
	// with forward slashes; outside it stays as given.
	first := results[0].(map[string]any)["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)["artifactLocation"].(map[string]any)
	if first["uri"] != "internal/core/node.go" {
		t.Errorf("in-root uri = %v, want internal/core/node.go", first["uri"])
	}
	if first["uriBaseId"] != "%SRCROOT%" {
		t.Errorf("uriBaseId = %v", first["uriBaseId"])
	}
	third := results[2].(map[string]any)["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)["artifactLocation"].(map[string]any)
	if third["uri"] != "/elsewhere/x.go" {
		t.Errorf("out-of-root uri = %v, want /elsewhere/x.go", third["uri"])
	}
}

// TestEncodeSARIFDedup checks that byte-identical findings — the same
// diagnostic surfacing from a package and its test variant — collapse to
// one result, while findings differing in any key field survive.
func TestEncodeSARIFDedup(t *testing.T) {
	in := sarifInput()
	dup := in[0] // same analyzer, file, position, and message
	samePosOtherMsg := in[0]
	samePosOtherMsg.Message = "a different diagnostic at the same position"
	in = append(in, dup, samePosOtherMsg)

	blob, err := EncodeSARIF(in, Suite(), "/repo")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Results []struct {
				Message struct{ Text string } `json:"message"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	results := doc.Runs[0].Results
	// Three originals + the distinct-message finding; the duplicate is gone.
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4 (duplicate collapsed): %s", len(results), blob)
	}
	msgs := map[string]int{}
	for _, r := range results {
		msgs[r.Message.Text]++
	}
	if msgs[in[0].Message] != 1 {
		t.Errorf("duplicated finding appears %d times, want 1", msgs[in[0].Message])
	}
	if msgs[samePosOtherMsg.Message] != 1 {
		t.Errorf("same-position distinct-message finding appears %d times, want 1", msgs[samePosOtherMsg.Message])
	}
}
