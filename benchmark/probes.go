package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sudaf"
	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/server"
	"sudaf/internal/sharing"
	"sudaf/internal/sketch"
	"sudaf/internal/storage"
	"sudaf/internal/symbolic"
	winfold "sudaf/internal/window"
)

// The probes time single layers from outside, by calling their exported
// functions directly on inputs taken from the workload. No span or
// counter is added inside the program.

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return time.Duration(median(ds))
}

// udafBodies are the declarative definitions of the workloads' UDAFs, as
// a user would pass them to DefineUDAF.
var udafBodies = []string{
	"sqrt(sum(x^2)/count())",
	"(sum(x^3)/count())^(1/3)",
	"prod(x)^(1/count())",
	"count()/sum(x^(-1))",
	"sqrt(sum(x^2)/n - (sum(x)/n)^2)",
	"(sum(x^3)/n - 3*(sum(x)/n)*(sum(x^2)/n) + 2*(sum(x)/n)^3)/(sum(x^2)/n - (sum(x)/n)^2)^1.5",
	"(sum(x^4)/n - 4*(sum(x)/n)*(sum(x^3)/n) + 6*(sum(x)/n)^2*(sum(x^2)/n) - 3*(sum(x)/n)^4)/(sum(x^2)/n - (sum(x)/n)^2)^2",
}

// probeSetup reports the set-up costs that do not depend on the data:
// canonical decomposition of a UDAF body and the symbolic-space precompute.
func probeSetup(r *report) error {
	var forms []*canonical.Form
	var ds []float64
	for _, body := range udafBodies {
		node, err := expr.Parse(body)
		if err != nil {
			return err
		}
		var f *canonical.Form
		d := timeMedian(5, func() { f, err = canonical.Decompose("probe", []string{"x"}, node) })
		if err != nil {
			return err
		}
		forms = append(forms, f)
		ds = append(ds, float64(d.Nanoseconds())/1e3)
	}
	r.set("canonical.decompose_us", median(ds), len(ds))
	r.set("symbolic.precompute_ms", float64(timeMedian(3, func() { symbolic.NewSpace(2) }).Nanoseconds())/1e6, 3)

	// Theorem 4.1 decisions between every pair of the forms' states.
	var states []canonical.State
	for _, f := range forms {
		states = append(states, f.States...)
	}
	pairs := 0
	d := timeMedian(5, func() {
		pairs = 0
		for i := range states {
			for j := range states {
				sharing.Decide(states[i].Op, states[i].F, states[j].Op, states[j].F, true)
				pairs++
			}
		}
	})
	r.set("sharing.decide_ns", float64(d.Nanoseconds())/float64(pairs), pairs)
	return nil
}

// probeSketch times the max-entropy quantile solver on the moments of
// the workload's own groups (the squares of one region).
func probeSketch(r *report, t *sudaf.Table, lo, hi int64) {
	sq, x := t.Col("square_id").I, t.Col(trafficCol).F
	k := sketch.DefaultK
	type group struct {
		n, min, max float64
		m           []float64
	}
	groups := map[int64]*group{}
	for i, s := range sq {
		if s < lo || s >= hi {
			continue
		}
		g := groups[s]
		if g == nil {
			g = &group{min: math.Inf(1), max: math.Inf(-1), m: make([]float64, k+1)}
			groups[s] = g
		}
		g.n++
		g.min, g.max = math.Min(g.min, x[i]), math.Max(g.max, x[i])
		p := 1.0
		for j := 0; j <= k; j++ {
			g.m[j] += p
			p *= x[i]
		}
	}
	var ds []float64
	for _, g := range groups {
		for j := range g.m {
			g.m[j] /= g.n
		}
		t0 := time.Now()
		sketch.Quantile(g.min, g.max, g.m, 0.5)
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.set("sketch.solve_us", median(ds), len(ds))
}

// probeStorage times the storage layer's persistence and append paths on
// the workload's base table.
func probeStorage(r *report, t *sudaf.Table, delta *sudaf.Table, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "t.seg")
	var serr error
	save := timeMedian(3, func() {
		if err := t.SaveSegFile(path); err != nil {
			serr = err
		}
	})
	load := timeMedian(3, func() {
		if _, err := storage.LoadSegFile(path); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("storage.save_ms", float64(save.Nanoseconds())/1e6, 3)
	r.set("storage.load_ms", float64(load.Nanoseconds())/1e6, 3)
	r.set("storage.bytes_per_row", float64(st.Size())/float64(t.NumRows()), t.NumRows())

	// AppendRows + Seal on a private version chain, so the engine's own
	// chain keeps ownership of its arrays' spare capacity.
	priv := genMilan(100_000, 7)
	priv.Seal()
	cur := priv
	var ds []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		next, err := cur.AppendRows(delta)
		if err != nil {
			return err
		}
		next.Seal()
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e3)
		cur = next
	}
	r.set("storage.append_us", median(ds), len(ds))
	return nil
}

// probeWindow times the two-stacks fold on the workload's traffic column:
// the O(1) fast path (max is association-free) and the refold fallback
// (a sum of non-integral values must replay the executor's fold shape).
func probeWindow(r *report, x []float64) error {
	state := func(body string) (canonical.State, error) {
		f, err := canonical.Decompose("probe", []string{"x"}, expr.MustParse(body))
		if err != nil {
			return canonical.State{}, err
		}
		return f.States[0], nil
	}
	frame := windowFrame + 1
	if frame > len(x)/2 {
		frame = len(x) / 2
	}
	maxSt, err := state("max(x)")
	if err != nil {
		return err
	}
	f := winfold.New(maxSt, exec.MorselRows)
	for _, v := range x[:frame] {
		f.Push(v)
	}
	steps := len(x) - frame
	sink := 0.0
	t0 := time.Now()
	for _, v := range x[frame:] {
		f.Push(v)
		f.Evict()
		sink += f.Value()
	}
	r.set("window.push_evict_ns", float64(time.Since(t0).Nanoseconds())/float64(steps), steps)

	sumSt, err := state("sum(x)")
	if err != nil {
		return err
	}
	g := winfold.New(sumSt, exec.MorselRows)
	for _, v := range x[:frame] {
		g.Push(v)
	}
	d := timeMedian(9, func() {
		g.Push(x[frame])
		g.Evict()
		sink += g.Value()
	})
	r.set("window.refold_us", float64(d.Nanoseconds())/1e3, 9)
	if math.IsNaN(sink) {
		return fmt.Errorf("window probe folded a NaN")
	}
	return nil
}

// probeFrames times the wire protocol's batch frame on a region result.
func probeFrames(r *report, res *sudaf.Table) error {
	rows := res.NumRows()
	var buf bytes.Buffer
	var ferr error
	enc := timeMedian(21, func() {
		buf.Reset()
		if err := server.WriteFrame(&buf, server.BatchFrame(res)); err != nil {
			ferr = err
		}
	})
	wire := append([]byte(nil), buf.Bytes()...)
	dec := timeMedian(21, func() {
		if _, err := server.ReadFrame(bufio.NewReader(bytes.NewReader(wire)), 0); err != nil && err != io.EOF {
			ferr = err
		}
	})
	if ferr != nil {
		return ferr
	}
	r.set("server.frame_encode_ns_per_row", float64(enc.Nanoseconds())/float64(rows), rows)
	r.set("server.frame_decode_ns_per_row", float64(dec.Nanoseconds())/float64(rows), rows)
	return nil
}

// probeShards replays queries on a Shards: 2 engine over a fresh copy of
// the same table and compares with the unsharded engine.
func probeShards(r *report, unsharded *sudaf.Engine, fresh *sudaf.Table, qs []qspec) error {
	eng := sudaf.Open(sudaf.Options{Workers: engineWorkers, Shards: 2, TraceRate: 1})
	defer closeEngine(eng)
	if err := eng.Register(fresh); err != nil {
		return err
	}
	run := func(e *sudaf.Engine) (total time.Duration, scatterNS int64, err error) {
		for _, q := range qs {
			t0 := time.Now()
			res, err := e.QueryContext(context.Background(), q.sql, sudaf.Rewrite)
			if err != nil {
				return 0, 0, err
			}
			total += time.Since(t0)
			if sp := res.Trace.Find("scatter-gather"); sp != nil {
				scatterNS += sp.DurNS
			}
		}
		return total, scatterNS, nil
	}
	if _, _, err := run(eng); err != nil { // lazy set-up on the sharded side
		return err
	}
	sharded, scatter, err := run(eng)
	if err != nil {
		return err
	}
	plain, _, err := run(unsharded)
	if err != nil {
		return err
	}
	r.set("shard.scatter_gather_ms", float64(scatter)/1e6/float64(len(qs)), len(qs))
	r.set("shard.overhead_share", sharded.Seconds()/plain.Seconds()-1, len(qs))
	return nil
}

// promValue sums a family's samples in the engine's metrics registry,
// which only exports Prometheus text.
func promValue(eng *sudaf.Engine, family string) float64 {
	var buf bytes.Buffer
	eng.Metrics().WritePrometheus(&buf)
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}
