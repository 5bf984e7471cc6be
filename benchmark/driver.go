package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sudaf"
)

// config is one run's parameters. Everything the engine sees is derived
// from it: generated tables and SQL strings, never the seed or the
// workload name.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every table size; 1 is the recorded configuration,
	// the smoke test runs at a few percent.
	scale  float64
	outDir string
	// Frozen constants recorded in BENCHMARK.json's command.
	thrashCacheBytes int64
	openRate         float64
	calibRef         float64 // CPU-seconds per calibration pass on the reference machine; 0: report unscaled times
	traceOps         map[string]int
}

func (c *config) rows(full int) int {
	n := int(float64(full) * c.scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

// sample is one completed op.
type sample struct {
	class int
	ms    float64       // latency on the process CPU clock (see calibrate.go)
	end   time.Duration // the window's CPU clock when the op returned
	rows  int64         // base rows scanned
	out   int           // result rows returned
	hit   bool          // answered entirely from the state cache
	kern  bool          // scanned through at least one compiled batch kernel
}

// check is a result awaiting the oracle; do returns one with every query
// result and the driver retains a sample of them. Checks run after the
// window in `order`, which for ingest_mixed is what lets the oracle
// replay appends up to the point the result was produced.
type check struct {
	order int
	fn    func() error
}

// workload is one of the five traffic mixes. setup is the timed,
// program-side set-up (Open, Register, DefineUDAF, warm, ...) over tables
// that generate() made from the seed beforehand; do runs op i. An op that
// fails returns an error and counts as failed.
type workload interface {
	generate()
	setup(tr *tracer) error
	do(i int, tr *tracer) (sample, *check, error)
	// block is the length of the op sequence's stratified blocks: every
	// run of block ops starting at a multiple of it has the same mix.
	block() int
	teardown() error
	// engine and registered expose the live engine and what Register cost,
	// for counter reads and probes.
	engine() *sudaf.Engine
	registered() registerStats
	// layers adds the per-layer metrics only this workload can measure,
	// after the traced pass.
	layers(r *report, untraced, traced *window, tr *tracer) error
}

// window is the outcome of one measured interval. Its clock is the
// process's CPU clock with the calibration slices taken out.
type window struct {
	samples []sample
	checks  []check
	errs    []error
	cpu     time.Duration // first op's start to last op's end on the window's clock
	busy    time.Duration // of which inside ops
	wall    time.Duration // the same interval on the wall clock, slices taken out
	blk     int           // the workload's block length
}

// drive runs the workload closed-loop on the calling goroutine: the next
// op starts when the previous one has returned. With maxOps > 0 it runs
// exactly ops 0..maxOps-1, otherwise until dur of wall time has passed.
//
// With a calibration, every calibEvery of the window's clock the loop runs a pass
// of the calibration kernel between two ops; the passes' time is kept out
// of the window's.
func drive(w workload, dur time.Duration, maxOps int, tr *tracer, calib *calibration) *window {
	win := &window{blk: w.block()}
	var seen, kept [numClasses]int
	var calibWall time.Duration
	start, cpu0 := time.Now(), processCPU()
	// now is the window's clock.
	var calibCPU time.Duration
	now := func() time.Duration { return processCPU() - cpu0 - calibCPU }
	deadline := start.Add(dur)
	lastCal := time.Duration(0)
	for i := 0; maxOps == 0 || i < maxOps; i++ {
		if maxOps == 0 && time.Now().After(deadline) {
			break
		}
		if t := now(); calib != nil && t-lastCal >= calibEvery {
			t0 := time.Now()
			calibCPU += calib.run(1)
			calibWall += time.Since(t0)
			lastCal = t
		}
		c0 := now()
		s, chk, err := w.do(i, tr)
		c1 := now()
		win.busy += c1 - c0
		win.cpu = c1
		if err != nil {
			win.errs = append(win.errs, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		s.ms, s.end = float64((c1-c0).Nanoseconds())/1e6, c1
		win.samples = append(win.samples, s)
		// The oracle's sample: 1 in retainEvery of each class, the first
		// maxRetained of them.
		seen[s.class]++
		if chk != nil && seen[s.class]%retainEvery == 1 && kept[s.class] < maxRetained {
			kept[s.class]++
			win.checks = append(win.checks, *chk)
		}
	}
	win.wall = time.Since(start) - calibWall
	return win
}

// whole returns the window cut back to whole blocks, so that its mix of
// ops does not depend on where the deadline fell; a window shorter than
// one block (or one with failed ops) is returned as it is.
func (win *window) whole() *window {
	n := len(win.samples) / win.blk * win.blk
	if n == 0 || len(win.errs) > 0 {
		return win
	}
	cut := *win
	cut.samples, cut.cpu = win.samples[:n], win.samples[n-1].end
	return &cut
}

// verify runs the retained checks in order and returns the mismatches.
func (win *window) verify() []error {
	sort.SliceStable(win.checks, func(i, j int) bool { return win.checks[i].order < win.checks[j].order })
	var bad []error
	for _, c := range win.checks {
		if err := c.fn(); err != nil {
			bad = append(bad, err)
		}
	}
	win.checks = nil
	return bad
}

func (win *window) attempted() int { return len(win.samples) + len(win.errs) }

// latencies returns the latencies (ms) of the samples keep selects.
func (win *window) latencies(keep func(s *sample) bool) []float64 {
	var out []float64
	for i := range win.samples {
		if keep(&win.samples[i]) {
			out = append(out, win.samples[i].ms)
		}
	}
	return out
}

func isQuery(s *sample) bool { return s.class != clsAppend }

func ofClass(class int) func(s *sample) bool {
	return func(s *sample) bool { return s.class == class }
}

// The oracle checks 1 in retainEvery timed results of each class, the
// first maxRetained per class and window. Sampling per class with a cap
// keeps the memory the retained results hold, and with it heap_live_mb,
// the same whatever the seed's op order and however many ops the window
// happened to fit.
const (
	retainEvery = 16
	maxRetained = 64
)

// engineQuery runs one query through the public entry point, wrapped in a
// benchmark-side span when traced, and turns the result into a sample.
func engineQuery(eng *sudaf.Engine, q *qspec, mode sudaf.Mode, i int, tr *tracer) (sample, *sudaf.Result, error) {
	t0 := time.Now()
	res, err := eng.QueryContext(context.Background(), q.sql, mode)
	if err != nil {
		return sample{}, nil, err
	}
	tr.record(i, "QueryContext", t0, time.Now(), res.Trace)
	return sample{class: q.class, rows: int64(res.RowsScanned), out: res.Table.NumRows(),
		hit: res.FullCacheHit, kern: len(res.Stats.Kernels) > 0}, res, nil
}

func closeEngine(eng *sudaf.Engine) error {
	if eng == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return eng.Close(ctx)
}
