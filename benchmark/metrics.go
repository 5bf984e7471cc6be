package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two tables below are the
// vocabulary later performance issues claim against; BENCHMARK.json lists
// exactly these names (the smoke test compares the two).
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the engine sees. Every workload reports
// every one of them in an untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},         // Open + Register + DefineUDAF + warm (+ Save/restore, server start), median of 3 set-ups
	{"queries_per_s", "1/s"}, // query requests completed per second of the measured window
	{"query_p95_ms", "ms"},   // tail query latency: mean of the 92.5th–97.5th percentile band
	{"heap_live_mb", "MB"},   // HeapInuse after a forced GC at window end, engine still open
}

// perLayerDefs are measured in the traced run. The dotted prefix is the
// package the number belongs to; names without a prefix are user-visible
// numbers that cannot be end-to-end metrics under the driver's contract:
// they exist on one workload only (every end-to-end metric must be
// reported, non-zero, by every workload), or, like query_p50_ms, they do
// not hold a bound from run to run (README.md, Noise). A metric is 0 on a
// workload that does not exercise its layer; README.md has the table.
var perLayerDefs = []metricDef{
	// engine spans (Result.Trace), mean per traced query
	{"sqlparse.parse_us", "us"},
	{"core.plan_us", "us"},
	{"core.orchestration_us", "us"},
	{"canonical.canonicalize_us", "us"},
	{"core.finisher_us", "us"},
	{"cache.lookup_us", "us"},
	{"cache.store_us", "us"},
	{"exec.scan_ms", "ms"},
	{"exec.scan_share", "share"},
	// set-up
	{"canonical.decompose_us", "us"},
	{"symbolic.precompute_ms", "ms"},
	{"storage.register_ns_per_row", "ns"},
	{"storage.encoded_segments", "count"},
	// sharing and cache counters
	{"sharing.decide_ns", "ns"},
	{"cache.full_hit_share", "share"},
	{"cache.shared_hit_share", "share"},
	{"cache.hit_ratio", "share"},
	{"cache.evictions_per_kq", "count"},
	{"exec.rows_per_result", "count"},
	{"sketch.solve_us", "us"},
	// scan classes of scan_cold
	{"exec.rows_per_s_m1", "1/s"},
	{"exec.rows_per_s_m2", "1/s"},
	{"exec.rows_per_s_m3", "1/s"},
	{"exec.rows_per_s_enc", "1/s"},
	{"exec.kernel_share", "share"},
	{"storage.run_folds_per_q", "count"},
	{"shard.scatter_gather_ms", "ms"},
	{"shard.overhead_share", "share"},
	// ingestion, persistence, windows
	{"cache.states_maintained_per_append", "count"},
	{"cache.entries_invalidated", "count"},
	{"storage.append_us", "us"},
	{"storage.save_ms", "ms"},
	{"storage.load_ms", "ms"},
	{"storage.bytes_per_row", "B"},
	{"window.push_evict_ns", "ns"},
	{"window.refold_us", "us"},
	{"window.refolds_per_emit", "count"},
	{"window.emit_lag_p95_ms", "ms"},
	// serving
	{"server.overhead_us", "us"},
	{"server.frame_encode_ns_per_row", "ns"},
	{"server.frame_decode_ns_per_row", "ns"},
	{"server.shed_share", "share"},
	{"server.queue_depth_max", "count"},
	// the load generator itself
	{"loadgen.overhead_share", "share"},
	{"loadgen.wall_over_cpu", "share"},
	{"loadgen.late_p95_us", "us"},
	{"loadgen.trace_overhead_share", "share"},
	{"loadgen.traced_ops", "count"},
	// user-visible, unbounded (untraced part of the traced run, unscaled)
	{"rows_scanned_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"append_rows_per_s", "1/s"},
	{"append_p50_ms", "ms"},
	{"append_p95_ms", "ms"},
	{"emit_lag_p50_ms", "ms"},
	{"restore_s", "s"},
	{"open_p50_ms", "ms"},
	{"open_p95_ms", "ms"},
	{"failed_share", "share"},
}

// report collects metric values by name. Unset metrics print as 0.
type report struct {
	vals    map[string]float64
	samples map[string]int
}

func newReport() *report {
	return &report{vals: map[string]float64{}, samples: map[string]int{}}
}

// set records a value and the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.vals[name] = v
	r.samples[name] = samples
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes every metric of the run's list by name with its unit and
// sample count, then the driver's result object as the last line.
func (r *report) print(w io.Writer, defs []metricDef, attempted, failed int) error {
	known := map[string]bool{}
	out := resultJSON{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		known[d.name] = true
		fmt.Fprintf(w, "metric %-36s %16.6f %-6s n=%d\n", d.name, r.vals[d.name], d.unit, r.samples[d.name])
		out.Metrics[d.name] = metricJSON{Value: r.vals[d.name], Unit: d.unit}
	}
	for name := range r.vals {
		if !known[name] {
			return fmt.Errorf("metric %q is not in the run's metric list", name)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or 0 when xs is empty. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// bandMean is a percentile that does not jump: the mean of the values
// between the (p-w)th and (p+w)th percentile. The workloads' latencies
// come in clusters (one per query class and aggregate), and a plain
// percentile that sits at a cluster boundary flips between the two
// clusters when a single op moves; the band mean moves by one op's share.
func bandMean(xs []float64, p, w float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo := int(math.Floor((p - w) / 100 * float64(len(xs))))
	hi := int(math.Ceil((p + w) / 100 * float64(len(xs))))
	if lo < 0 {
		lo = 0
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	if hi <= lo {
		return percentile(xs, p)
	}
	return mean(xs[lo:hi])
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver uses for spreads.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
