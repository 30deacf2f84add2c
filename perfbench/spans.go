package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// saga share its parent; Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanLog keeps the spans of one iteration in memory. The workloads call
// into their layers from one goroutine, so the innermost open span is the
// parent of the next one. A nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the open spans, innermost last
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	s := span{ID: len(l.spans) + 1, Name: name, StartNS: int64(time.Since(l.t0))}
	if n := len(l.open); n > 0 {
		s.Parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, s)
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

// end closes the span begin returned; spans close innermost first.
func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].EndNS = int64(time.Since(l.t0))
	l.open = l.open[:len(l.open)-1]
}

// time runs fn inside a span.
func (l *spanLog) time(name string, fn func()) {
	i := l.begin(name)
	fn()
	l.end(i)
}

// durations returns the duration in microseconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfMicros returns, for every span whose name is in roots, its duration
// minus the time its direct children cover, in microseconds.
func (l *spanLog) selfMicros(roots ...string) []float64 {
	isRoot := make(map[string]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}
	child := make(map[int]time.Duration)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range l.spans {
		if isRoot[s.Name] {
			out = append(out, float64(s.dur()-child[s.ID])/1e3)
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (l *spanLog) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
