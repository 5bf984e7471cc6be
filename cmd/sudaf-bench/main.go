// Command sudaf-bench regenerates the SUDAF paper's evaluation: every
// figure's workload over synthetic TPC-DS-like and Milan-like data, with
// the three systems (baseline with hardcoded UDAFs, SUDAF without
// sharing, SUDAF with sharing). See EXPERIMENTS.md for recorded runs.
// Engine-feature performance (kernels, encodings, ingest, windows,
// shards, serving) is measured by benchmark/ — see BENCHMARK.json.
//
// Usage:
//
//	sudaf-bench -exp all
//	sudaf-bench -exp fig1,fig6 -pg-scale 2 -milan-pg 4000000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sudaf/internal/bench"
	"sudaf/internal/obs"
)

// experiments is the accepted -exp list (plus "all"), in run order;
// ci/check_docs.sh holds every -exp name in the docs to it. Figures 8 and
// 9 are the per-query halves of the Figure 6 and 7 runs, so either name
// selects the one run.
var experiments = []struct {
	names []string
	run   func(*bench.Runner)
}{
	{[]string{"table1"}, (*bench.Runner).Table1},
	{[]string{"space"}, (*bench.Runner).Space},
	{[]string{"fig1"}, func(r *bench.Runner) { r.Fig1(false) }},
	{[]string{"fig2"}, func(r *bench.Runner) { r.Fig1(true) }},
	{[]string{"fig6", "fig8"}, func(r *bench.Runner) { r.Fig6and8(false) }},
	{[]string{"fig7", "fig9"}, func(r *bench.Runner) { r.Fig6and8(true) }},
	{[]string{"fig10"}, (*bench.Runner).Fig10},
}

func main() {
	known := map[string]bool{"all": true}
	var names []string
	for _, e := range experiments {
		for _, n := range e.names {
			known[n] = true
			names = append(names, n)
		}
	}
	var (
		exps       = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ",")+",all")
		pgScale    = flag.Int("pg-scale", 2, "TPC-DS scale for serial (PostgreSQL-mode) runs")
		sparkScale = flag.Int("spark-scale", 4, "TPC-DS scale for parallel (Spark-mode) runs")
		milanPG    = flag.Int("milan-pg", 4_000_000, "Milan rows for serial runs")
		milanSpark = flag.Int("milan-spark", 8_000_000, "Milan rows for parallel runs")
		squares    = flag.Int("squares", 10_000, "Milan group cardinality")
		workers    = flag.Int("workers", 0, "Spark-mode parallelism (0 = NumCPU)")
		n10        = flag.Int("fig10-queries", 200, "random sequence length")
		seed       = flag.Int64("seed", 0, "dataset seed (0 = default)")
		metricsAt  = flag.String("metrics-addr", "", "serve Prometheus metrics, expvar and pprof on this address while the harness runs, e.g. :9090")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if !known[e] {
			fmt.Fprintf(os.Stderr, "sudaf-bench: unknown experiment %q (see -h; engine-feature numbers live in benchmark/, BENCHMARK.json)\n", e)
			os.Exit(2)
		}
		want[e] = true
	}

	var reg *obs.Registry
	if *metricsAt != "" {
		reg = obs.NewRegistry()
		srv, err := obs.ServeMetrics(*metricsAt, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics  (expvar at /debug/vars, pprof at /debug/pprof)\n", srv.Addr)
	}

	r := bench.NewRunner(bench.Config{
		PGScale:        *pgScale,
		SparkScale:     *sparkScale,
		MilanRowsPG:    *milanPG,
		MilanRowsSpark: *milanSpark,
		MilanSquares:   *squares,
		Workers:        *workers,
		Seed:           *seed,
		Fig10Queries:   *n10,
		Out:            os.Stdout,
		Metrics:        reg,
	})

	start := time.Now()
	for _, e := range experiments {
		selected := want["all"]
		for _, n := range e.names {
			selected = selected || want[n]
		}
		if selected {
			e.run(r)
		}
	}
	fmt.Printf("\ntotal harness time: %v\n", time.Since(start).Round(time.Millisecond))
}
