package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one harness-side interval around a call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the log, -1 for a root
}

// spanLog records spans in memory on the harness goroutine and writes
// them out when the benchmark ends.  A nil *spanLog records nothing, so
// rigs call begin/end unconditionally and the untraced pass pays a nil
// test.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes; the top is the parent of the next begin
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	parent := -1
	if k := len(l.open); k > 0 {
		parent = l.open[k-1]
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent})
}

// end closes the innermost open span.
func (l *spanLog) end() {
	if l == nil {
		return
	}
	k := len(l.open) - 1
	l.spans[l.open[k]].End = int64(time.Since(l.t0))
	l.open = l.open[:k]
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// write stores the spans and their per-name self times under dir.
func (l *spanLog) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Spans  []span           `json:"spans"`
		SelfNS map[string]int64 `json:"self_ns"`
	}{l.spans, selfTimes(l.spans)}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b, 0o644)
}
