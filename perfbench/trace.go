package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval. Name is "<layer>.<call>"; the layer is the
// repository module the call enters ("bench" for the benchmark's own root
// spans). Parent indexes the enclosing span, -1 for a root. Spans of one
// operation share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is how
// the untraced operations run. The benchmark is one client goroutine, so
// the tracer needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// derived records a child of span parent whose interval the layer
// reported itself: d long, starting offset after the parent's start.
func (t *tracer) derived(name string, parent int, offset, d int64) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	start := p.Start + offset
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + d, Parent: parent, Run: p.Run})
}

// layer is the module a span name belongs to.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time (a span's duration minus the
// part its children cover, summed per layer) over the spans of the
// measured operations, and the total duration of their root spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, rootWall time.Duration) {
	self = map[string]time.Duration{}
	if t == nil {
		return self, 0
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if !isOp(s.Run) {
			continue
		}
		self[layer(s.Name)] += time.Duration(s.End - s.Start - child[i])
		if s.Parent < 0 {
			rootWall += time.Duration(s.End - s.Start)
		}
	}
	return self, rootWall
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the convention of numpy's default and of Python's
// statistics.quantiles with method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
