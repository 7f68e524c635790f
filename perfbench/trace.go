package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public entry point it invokes. Spans of one operation share a trace ID;
// Parent is 0 for the root span of a trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run measures the end-to-end numbers.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginAt opens a span that started at t. A zero parent opens a new trace.
func (t *tracer) beginAt(name, attr string, parent int, at time.Time) int {
	if t == nil {
		return 0
	}
	start := at.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Attr: attr, Start: start}
	if parent == 0 {
		t.traces++
		s.Trace = t.traces
	} else {
		s.Trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) begin(name, attr string, parent int) int {
	return t.beginAt(name, attr, parent, time.Now())
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in the given unit.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64
		reach = s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Count    int     `json:"count"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_ms"`
	MedianUs float64 `json:"median_us"`
	SelfP50  float64 `json:"self_median_us"`
}

func summarize(spans []span) map[string]layerSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	out := map[string]layerSummary{}
	for _, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalMs += float64(s.dur()) / 1e6
		l.SelfMs += float64(self[s.ID]) / 1e6
		out[s.Name] = l
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	for name, l := range out {
		l.MedianUs = median(durs[name])
		l.SelfP50 = median(selfs[name])
		out[name] = l
	}
	return out
}

// maxSpansWritten bounds the span file; summaries always cover every span.
const maxSpansWritten = 100000

// writeTrace writes the spans and the per-layer summary to path.
func writeTrace(path string, meta map[string]any, spans []span, layers map[string]layerSummary) error {
	doc := map[string]any{"meta": meta, "layers": layers, "spans_recorded": len(spans)}
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	doc["spans"] = spans
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
