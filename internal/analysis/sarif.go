package analysis

import (
	"encoding/json"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 document shape — only the subset GitHub code scanning
// consumes.  Field names follow the spec's camelCase property names.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// staleAllowRuleDoc describes the driver's staleness sweep, which emits
// findings under the synthetic analyzer name "staleallow" without being a
// suite member.
const staleAllowRuleDoc = "flag //halvet:allowblock and //halvet:allowwallclock comments that no longer suppress any diagnostic"

// EncodeSARIF renders findings as a SARIF 2.1.0 log for GitHub code
// scanning.  Rule IDs are "halvet-<analyzer>"; file URIs are made
// relative to root (the repo checkout) and anchored at %SRCROOT%, which
// code scanning resolves to the repository root.
//
// Identical results (same rule, file, position, and message) are emitted
// once: a package built both as itself and as a test variant runs every
// analyzer over the same files twice, and code scanning treats the
// duplicate as a second alert.
func EncodeSARIF(findings []Finding, suite []*Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, 0, len(suite)+1)
	for _, az := range suite {
		rules = append(rules, sarifRule{
			ID:               "halvet-" + az.Name,
			ShortDescription: sarifMessage{Text: az.Doc},
		})
	}
	rules = append(rules, sarifRule{
		ID:               "halvet-staleallow",
		ShortDescription: sarifMessage{Text: staleAllowRuleDoc},
	})

	type resultKey struct {
		rule, uri, msg string
		line, col      int
	}
	seen := map[resultKey]bool{}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		uri := f.Pos.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, uri); err == nil && !strings.HasPrefix(rel, "..") {
				uri = rel
			}
		}
		key := resultKey{
			rule: "halvet-" + f.Analyzer,
			uri:  filepath.ToSlash(uri),
			msg:  f.Message,
			line: f.Pos.Line,
			col:  f.Pos.Column,
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		results = append(results, sarifResult{
			RuleID:  "halvet-" + f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(uri),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   f.Pos.Line,
						StartColumn: f.Pos.Column,
					},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "halvet", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(&log, "", "  ")
}
