package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sudaf"
)

// span is one timed interval of a traced op. Benchmark-side spans wrap
// the public call (QueryContext, Append, client.Query, ...); the engine's
// own spans (Result.Trace) hang below them as children. Spans of one op
// share its op id.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: a benchmark-side root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanSum accumulates one span name.
type spanSum struct{ durNS, selfNS int64 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced loop calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	sums  map[string]*spanSum
	// queries counts traced ops that carried an engine trace.
	queries int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]*spanSum{}}
}

func (t *tracer) sum(name string) *spanSum {
	s := t.sums[name]
	if s == nil {
		s = &spanSum{}
		t.sums[name] = s
	}
	return s
}

// record adds the benchmark-side span of op and, below it, the engine's
// span tree when the call returned one.
func (t *tracer) record(op int, name string, start, end time.Time, engine *sudaf.Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.spans)
	s0 := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Op: op, ID: root, Parent: -1, Name: name, StartNS: s0, EndNS: end.Sub(t.t0).Nanoseconds()})
	b := t.sum(name)
	b.durNS += end.Sub(start).Nanoseconds()
	b.selfNS += end.Sub(start).Nanoseconds()
	if engine == nil || engine.Root() == nil {
		return
	}
	t.queries++
	b.selfNS -= engine.Root().DurNS
	var walk func(sp *sudaf.Span, parent int)
	walk = func(sp *sudaf.Span, parent int) {
		id := len(t.spans)
		t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: sp.Name,
			StartNS: s0 + sp.StartNS, EndNS: s0 + sp.StartNS + sp.DurNS})
		s := t.sum(sp.Name)
		s.durNS += sp.DurNS
		self := sp.DurNS
		for _, c := range sp.Children {
			self -= c.DurNS
			walk(c, id)
		}
		s.selfNS += self
	}
	walk(engine.Root(), root)
}

// perQueryUS is a span name's total duration divided by the number of
// traced queries, in µs: what that stage costs the average query.
func (t *tracer) perQueryUS(name string, self bool) float64 {
	s := t.sums[name]
	if s == nil || t.queries == 0 {
		return 0
	}
	ns := s.durNS
	if self {
		ns = s.selfNS
	}
	return float64(ns) / 1e3 / float64(t.queries)
}

// write dumps the spans to <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
