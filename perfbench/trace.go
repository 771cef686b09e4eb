package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// IDs start at 1; Parent 0 marks a root span. Spans issued for one
// request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no checks.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// close ends the span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span with known bounds (for calls timed by the
// load generator, which keeps its own timestamps).
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, fn func(id int)) time.Duration {
	start := time.Now()
	id := t.open(name, parent, 0)
	fn(id)
	t.close(id)
	return time.Since(start)
}

// durations returns the durations of every finished span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50Ms   float64 `json:"p50_ms"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize computes per-name counts, median durations and self times. A
// span's self time is its duration minus the part of it covered by its
// children.
func (t *tracer) summarize() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		durs        []time.Duration
		total, self int64
	}
	by := map[string]*acc{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.durs = append(a.durs, time.Duration(d))
		a.total += d
		a.self += d - covered(s, children[s.ID])
	}
	out := make([]layerSummary, 0, len(by))
	for name, a := range by {
		out = append(out, layerSummary{Name: name, Count: len(a.durs), P50Ms: ms(median(a.durs)),
			TotalMs: float64(a.total) / 1e6, SelfMs: float64(a.self) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// write stores the spans and their summary as JSON at path.
func (t *tracer) write(path string, extra map[string]any) error {
	summary := t.summarize()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"summary": summary, "checks": extra, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
