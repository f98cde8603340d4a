package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call
// into a layer of the program (never inside it). Spans of one query,
// update or request share a Trace id; Parent is the enclosing span (0
// for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s Span) Seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid no-op, so traced and untraced runs share one code path and an
// untraced run records nothing.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span // span id i is spans[i-1]
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id. parent 0 starts a new trace
// whose id is the span's own id.
func (t *Tracer) Begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	trace := id
	if parent != 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Dur returns the duration in seconds of the closed span id (0 on a
// nil tracer).
func (t *Tracer) Dur(id int64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Seconds()
}

// Do records fn as a span named name under parent.
func (t *Tracer) Do(name string, parent int64, fn func()) {
	id := t.Begin(name, parent)
	fn()
	t.End(id)
}

// Spans returns the closed spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in seconds of every closed span
// named name, in start order.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Seconds())
		}
	}
	return out
}

// SelfTime is a span's duration minus the part of its interval that
// its child spans cover (children may overlap each other).
func selfTimes(spans []Span) map[int64]float64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	return self
}

// covered returns the nanoseconds of p's interval covered by the union
// of the intervals kids.
func covered(p Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curHi = -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name    string
	Count   int
	TotalS  float64
	SelfS   float64
	MedianS float64
}

func summarizeSpans(spans []Span) []SpanSummary {
	self := selfTimes(spans)
	byName := map[string]*SpanSummary{}
	var names []string
	durs := map[string][]float64{}
	for _, s := range spans {
		sum, ok := byName[s.Name]
		if !ok {
			sum = &SpanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalS += s.Seconds()
		sum.SelfS += self[s.ID]
		durs[s.Name] = append(durs[s.Name], s.Seconds())
	}
	out := make([]SpanSummary, 0, len(names))
	for _, n := range names {
		s := byName[n]
		s.MedianS = medianOf(durs[n])
		out = append(out, *s)
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []Span) error {
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
		return err
	}
	return f.Close()
}
