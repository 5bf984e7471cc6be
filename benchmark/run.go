package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sudaf"
)

// finisher is implemented by workloads that must settle asynchronous
// work (subscription emissions) before a window's results are final.
type finisher interface {
	finish(win *window) error
}

// untracedReporter is implemented by workloads with user-visible numbers
// of their own, measured with tracing off in the traced run's first part.
type untracedReporter interface {
	untraced(cfg *config, r *report, win *window, stderr io.Writer) (attempted, failed int)
}

func (w *scanCold) engine() *sudaf.Engine    { return w.eng }
func (w *shareWL) engine() *sudaf.Engine     { return w.eng }
func (w *ingestMixed) engine() *sudaf.Engine { return w.eng }
func (w *serveHTTP) engine() *sudaf.Engine   { return w.eng }

func (w *scanCold) registered() registerStats    { return w.reg }
func (w *shareWL) registered() registerStats     { return w.reg }
func (w *ingestMixed) registered() registerStats { return w.reg }
func (w *serveHTTP) registered() registerStats   { return w.reg }

// setupOnce generates fresh tables (untimed: they are the benchmark's
// inputs) and times the program-side set-up over them on the process CPU
// clock. Fresh tables each time, because Register seals and encodes a
// table only once.
func setupOnce(w workload, tr *tracer) (time.Duration, error) {
	w.generate()
	runtime.GC()
	t0 := processCPU()
	err := w.setup(tr)
	return processCPU() - t0, err
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// settleWindow finishes asynchronous work and runs the oracle over the
// retained results; it returns the number of failed ops.
func settleWindow(w workload, win *window, stderr io.Writer) int {
	if f, ok := w.(finisher); ok {
		if err := f.finish(win); err != nil {
			win.errs = append(win.errs, err)
		}
	}
	bad := append(win.errs, win.verify()...)
	for i, err := range bad {
		if i == 10 {
			fmt.Fprintf(stderr, "  ... and %d more\n", len(bad)-10)
			break
		}
		fmt.Fprintln(stderr, "  failed:", err)
	}
	return len(bad)
}

func runWorkload(cfg *config, stdout, stderr io.Writer) error {
	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	r := newReport()
	var attempted, failed int
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
		attempted, failed, err = runTraced(cfg, w, r, stderr)
	} else {
		attempted, failed, err = runEndToEnd(cfg, w, r, stderr)
	}
	if terr := w.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	if attempted < 1 {
		return fmt.Errorf("no op completed in the window")
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v scale %g attempted %d failed %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, attempted, failed)
	if err := r.print(stdout, defs, attempted, failed); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d ops failed or disagreed with the oracle", failed, attempted)
	}
	return nil
}

// setupPasses calibration passes run before, between and after the
// set-ups.
const setupPasses = 40

// runEndToEnd is the untraced run: three timed set-ups (the last one
// serves the window), a forced GC, one measured window of cfg.seconds.
func runEndToEnd(cfg *config, w workload, r *report, stderr io.Writer) (attempted, failed int, err error) {
	var setups []float64
	cal := newCalibration()
	cal.run(setupPasses)
	for k := 0; k < 3; k++ {
		if k > 0 {
			if err := w.teardown(); err != nil {
				return 0, 0, err
			}
		}
		d, err := setupOnce(w, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		cal.run(setupPasses)
	}
	setupPass := cal.passSeconds()
	cal.passes = nil
	runtime.GC()
	full := drive(w, time.Duration(cfg.seconds*float64(time.Second)), 0, nil, cal)
	pass, passes := cal.passSeconds(), len(cal.passes)
	// cal is dead from here on: the kernel's 4 MB of keys are not in the
	// heap reading.
	heap := heapLiveMB()
	failed = settleWindow(w, full, stderr)

	win := full.whole()
	lat := win.latencies(isQuery)
	qps := float64(len(lat)) / win.cpu.Seconds()
	p50, p95 := bandMean(lat, 50, 5), bandMean(lat, 95, 2.5)
	setupSpeed, speed := calibSpeed(cfg.calibRef, setupPass), calibSpeed(cfg.calibRef, pass)
	fmt.Fprintf(stderr, "calibration: %.4f ms per pass over %d passes in the window, %.4f ms around the set-ups, reference %.4f ms\n",
		pass*1e3, passes, setupPass*1e3, cfg.calibRef*1e3)
	fmt.Fprintf(stderr, "unscaled: setup_s %.4f queries_per_s %.3f query_p50_ms %.4f query_p95_ms %.4f; wall/cpu %.3f, %d of %d ops in whole blocks\n",
		median(setups), qps, p50, p95, full.wall.Seconds()/full.cpu.Seconds(), len(win.samples), len(full.samples))
	r.set("setup_s", median(setups)*setupSpeed, len(setups))
	r.set("queries_per_s", qps/speed, len(lat))
	r.set("query_p95_ms", p95*speed, len(lat))
	r.set("heap_live_mb", heap, 1)
	return full.attempted(), failed, nil
}

// defaultTraceOps are the traced-pass op counts, frozen so that the pass
// takes about a third of the window on the machine that recorded
// BENCHMARK.json; -trace-ops overrides them and -scale shrinks them.
var defaultTraceOps = map[string]int{
	"scan_cold": 110, "share_zipf": 240, "share_thrash": 640, "ingest_mixed": 800, "serve_http": 4000,
}

func traceOpsFor(cfg *config) int {
	n, ok := cfg.traceOps[cfg.workload]
	if !ok {
		n = int(float64(defaultTraceOps[cfg.workload]) * cfg.seconds / 10)
	}
	if n < 20 {
		n = 20
	}
	return n
}

// runTraced produces the per-layer metrics: a short untraced window (the
// user-visible one-workload numbers and the untraced throughput), then a
// fresh engine opened with TraceRate=1 running the first N ops of the
// same sequence under benchmark-side spans, then direct probes of single
// layers on inputs taken from the workload.
func runTraced(cfg *config, w workload, r *report, stderr io.Writer) (attempted, failed int, err error) {
	if _, err := setupOnce(w, nil); err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	win0 := drive(w, time.Duration(0.4*cfg.seconds*float64(time.Second)), 0, nil, nil)
	failed = settleWindow(w, win0, stderr)
	attempted = win0.attempted()
	untracedLayers(w, r, win0)
	if u, ok := w.(untracedReporter); ok {
		a, f := u.untraced(cfg, r, win0, stderr)
		attempted, failed = attempted+a, failed+f
	}
	if err := w.teardown(); err != nil {
		return 0, 0, err
	}

	tr := newTracer()
	if _, err := setupOnce(w, tr); err != nil {
		return 0, 0, fmt.Errorf("traced set-up: %w", err)
	}
	eng := w.engine()
	runtime.GC()
	cache0 := eng.CacheStats()
	win1 := drive(w, 0, traceOpsFor(cfg), tr, nil)
	cache1 := eng.CacheStats()
	failed += settleWindow(w, win1, stderr)
	attempted += win1.attempted()

	tracedLayers(r, win0, win1, tr, cache0, cache1)
	if err := probeSetup(r); err != nil {
		return 0, 0, fmt.Errorf("layer probes: %w", err)
	}
	if err := w.layers(r, win0, win1, tr); err != nil {
		return 0, 0, fmt.Errorf("layer probes: %w", err)
	}
	r.set("failed_share", float64(failed)/float64(attempted), attempted)
	if err := tr.write(cfg.outDir, cfg.workload); err != nil {
		return 0, 0, err
	}
	return attempted, failed, nil
}

// untracedLayers reports what the short untraced window shows.
func untracedLayers(w workload, r *report, win *window) {
	lat := win.latencies(isQuery)
	var rows int64
	for i := range win.samples {
		rows += win.samples[i].rows
	}
	r.set("rows_scanned_per_s", float64(rows)/win.cpu.Seconds(), len(lat))
	r.set("query_p50_ms", bandMean(lat, 50, 5), len(lat))
	if len(lat) >= 1000 {
		r.set("query_p99_ms", percentile(lat, 99), len(lat))
	}
	r.set("loadgen.overhead_share", 1-win.busy.Seconds()/win.cpu.Seconds(), len(win.samples))
	r.set("loadgen.wall_over_cpu", win.wall.Seconds()/win.cpu.Seconds(), len(win.samples))
	reg := w.registered()
	r.set("storage.register_ns_per_row", float64(reg.dur.Nanoseconds())/float64(reg.rows), reg.rows)
	r.set("storage.encoded_segments", float64(reg.segments), 1)
}

// tracedLayers reports what the engine's spans and public counters show
// for the traced pass.
func tracedLayers(r *report, win0, win1 *window, tr *tracer, c0, c1 sudaf.CacheStats) {
	spanLayers(r, tr)

	q1 := win1.latencies(isQuery)
	var rows, out int64
	var hits, scans, kern int
	for i := range win1.samples {
		s := &win1.samples[i]
		if !isQuery(s) {
			continue
		}
		rows += s.rows
		out += int64(s.out)
		if s.hit {
			hits++
		}
		if s.rows > 0 {
			scans++
			if s.kern {
				kern++
			}
		}
	}
	if len(q1) > 0 {
		r.set("cache.full_hit_share", float64(hits)/float64(len(q1)), len(q1))
		r.set("cache.evictions_per_kq", 1000*float64(c1.Evictions-c0.Evictions)/float64(len(q1)), len(q1))
	}
	if out > 0 {
		r.set("exec.rows_per_result", float64(rows)/float64(out), len(q1))
	}
	if scans > 0 {
		r.set("exec.kernel_share", float64(kern)/float64(scans), scans)
	}
	if lookups := c1.Lookups - c0.Lookups; lookups > 0 {
		hit := (c1.ExactHits - c0.ExactHits) + (c1.SharedHits - c0.SharedHits) + (c1.SignHits - c0.SignHits)
		r.set("cache.hit_ratio", float64(hit)/float64(lookups), int(lookups))
		r.set("cache.shared_hit_share", float64(c1.SharedHits-c0.SharedHits)/float64(lookups), int(lookups))
	}
	r.set("loadgen.traced_ops", float64(win1.attempted()), win1.attempted())
	q0 := win0.latencies(isQuery)
	if len(q0) > 0 && len(q1) > 0 {
		untraced := float64(len(q0)) / win0.cpu.Seconds()
		traced := float64(len(q1)) / win1.cpu.Seconds()
		r.set("loadgen.trace_overhead_share", 1-traced/untraced, len(q1))
	}
}
