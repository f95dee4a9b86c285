package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work share
// the unit id (-1 outside any unit); parent is the index of the
// enclosing span, or -1. Ops counts the client operations the call
// handled, for per-operation costs.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Unit   int           `json:"unit"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Ops    int           `json:"ops"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRef refers to an open span: its index among the recorded spans
// (-1 when the tracer does not record) and its start.
type spanRef struct {
	id    int
	start time.Duration
}

// noSpan is the parent of a span that no other span encloses.
var noSpan = spanRef{id: -1}

// tracer keeps spans in memory until the run ends. It is safe for use by
// several workers at once. A tracer that does not record still times
// every call, so the same code runs with and without spans.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	record bool
	spans  []span
}

func newTracer(record bool) *tracer { return &tracer{epoch: time.Now(), record: record} }

// begin opens a span under parent.
func (t *tracer) begin(name string, parent spanRef, unit int) spanRef {
	now := time.Since(t.epoch)
	if !t.record {
		return spanRef{id: -1, start: now}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent.id, Unit: unit, Start: now, End: -1})
	return spanRef{id: len(t.spans) - 1, start: now}
}

// end closes the span, recording the operations it handled, and returns
// its duration.
func (t *tracer) end(ref spanRef, ops int) time.Duration {
	now := time.Since(t.epoch)
	if ref.id >= 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[ref.id].End = now
		t.spans[ref.id].Ops = ops
	}
	return now - ref.start
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each closed span's self time: its
// duration minus the part of its interval that its children cover.
// Children that overlap one another (parallel workers under one unit)
// are counted once, as the union of their intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.dur() - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// durations sums, per name, the durations of closed spans and the
// operations they handled.
func durations(spans []span) (sum map[string]time.Duration, ops map[string]int) {
	sum, ops = make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		if s.End >= 0 {
			sum[s.Name] += s.dur()
			ops[s.Name] += s.Ops
		}
	}
	return sum, ops
}

// meanMS returns the mean duration, in milliseconds, of the closed spans
// named name; 0 without any.
func meanMS(spans []span, name string) float64 {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(time.Millisecond) / float64(n)
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
