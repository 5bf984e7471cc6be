// Package bench reproduces the SUDAF paper's evaluation (Section 6):
// every figure's workload, parameter sweep and system comparison, over
// the synthetic TPC-DS-like and Milan-like datasets.
//
//	Fig 1 (a,b,c)  PostgreSQL-mode Q1 / Q2-after-Q1 / Q3-vs-RQ3'
//	Fig 2 (a,b,c)  the same in Spark mode (parallel partial aggregation)
//	Fig 6 / Fig 8  PostgreSQL-mode query models 1–3 × sequences AS1/AS2,
//	               total and per-query times for the three systems
//	Fig 7 / Fig 9  the same in Spark mode
//	Fig 10         a random 200-query sequence over 16 aggregates
//	Table 1        canonical forms derived from Table 1's expressions
//	Figures 4/5    the saggs_2 symbolic space and its equivalence classes
//
// The three systems are the paper's: the baseline (hardcoded UDAFs),
// SUDAF without sharing, and SUDAF with sharing. Absolute times depend
// on this machine; the *shape* (who wins, by what factor, where sharing
// collapses runtimes) is the reproduction target recorded in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/data"
	"sudaf/internal/obs"
)

// Config sizes the experiments.
type Config struct {
	// PGScale is the TPC-DS scale factor for serial ("PostgreSQL") runs.
	PGScale int
	// SparkScale is the TPC-DS scale factor for parallel ("Spark") runs.
	SparkScale int
	// MilanRowsPG / MilanRowsSpark size the telecom table.
	MilanRowsPG    int
	MilanRowsSpark int
	// MilanSquares is the group cardinality of query model 2.
	MilanSquares int
	// Workers for the Spark-mode engine (0 = NumCPU).
	Workers int
	// Seed for dataset generation and the random sequence.
	Seed int64
	// Fig10Queries is the length of the random sequence (paper: 200).
	Fig10Queries int
	// Out receives the report (defaults to no output when nil... callers
	// pass os.Stdout).
	Out io.Writer
	// Metrics, when non-nil, is shared by both sessions so a scraper (see
	// sudaf-bench -metrics-addr) can watch the harness live. The serial
	// session registers under engine="pg", the parallel one under
	// engine="spark".
	Metrics *obs.Registry
}

// Defaults fills unset fields with laptop-scale values.
func (c *Config) Defaults() {
	if c.PGScale == 0 {
		c.PGScale = 2
	}
	if c.SparkScale == 0 {
		c.SparkScale = 4
	}
	if c.MilanRowsPG == 0 {
		c.MilanRowsPG = 4_000_000
	}
	if c.MilanRowsSpark == 0 {
		c.MilanRowsSpark = 8_000_000
	}
	if c.MilanSquares == 0 {
		c.MilanSquares = 10_000
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Seed == 0 {
		c.Seed = 20200330 // EDBT 2020 opening day
	}
	if c.Fig10Queries == 0 {
		c.Fig10Queries = 200
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// Measurement is one timed query execution.
type Measurement struct {
	Exp     string // e.g. "fig1a"
	Label   string // e.g. "Q1" or "qm"
	System  string // baseline | sudaf-noshare | sudaf-share
	Seconds float64
	Rows    int // base rows scanned
}

// Runner owns the two sessions (serial and parallel) with data loaded.
type Runner struct {
	cfg      Config
	pg       *core.Session
	spark    *core.Session
	out      io.Writer
	Results  []Measurement
	haveData bool
}

// NewRunner builds sessions and datasets per the config.
func NewRunner(cfg Config) *Runner {
	cfg.Defaults()
	return &Runner{cfg: cfg, out: cfg.Out}
}

// session returns the serial or parallel session, building it (and its
// datasets) on first use.
func (r *Runner) session(spark bool) *core.Session {
	if !r.haveData {
		r.pg = core.NewSession(core.Options{Workers: 1,
			Metrics: r.cfg.Metrics, MetricsLabel: "pg"})
		r.spark = core.NewSession(core.Options{Workers: r.cfg.Workers,
			Metrics: r.cfg.Metrics, MetricsLabel: "spark"})
		for _, t := range data.TPCDS(r.cfg.PGScale, r.cfg.Seed) {
			must(r.pg.Register(t))
		}
		must(r.pg.Register(data.Milan(r.cfg.MilanRowsPG, r.cfg.MilanSquares, r.cfg.Seed+1)))
		for _, t := range data.TPCDS(r.cfg.SparkScale, r.cfg.Seed+2) {
			must(r.spark.Register(t))
		}
		must(r.spark.Register(data.Milan(r.cfg.MilanRowsSpark, r.cfg.MilanSquares, r.cfg.Seed+3)))
		r.haveData = true
	}
	if spark {
		return r.spark
	}
	return r.pg
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// run times one query.
func (r *Runner) run(s *core.Session, exp, label string, mode core.Mode, sql string) Measurement {
	start := time.Now()
	res, err := s.Query(sql, mode)
	if err != nil {
		panic(fmt.Sprintf("%s/%s (%v): %v", exp, label, mode, err))
	}
	m := Measurement{
		Exp: exp, Label: label, System: mode.String(),
		Seconds: time.Since(start).Seconds(), Rows: res.RowsScanned,
	}
	r.Results = append(r.Results, m)
	return m
}

// ---- the paper's queries ----

// PaperQ1, PaperQ2 and PaperQ3 are Q1/Q2/Q3 of Section 2 (the TN
// predicate keeps half the stores). These constants and QueryModel are
// the one definition of the paper's statements; the root benchmarks
// (bench_test.go) use them too.
const PaperQ1 = `SELECT ss_item_sk, d_year, avg(ss_list_price),
	avg(ss_sales_price), theta1(ss_list_price, ss_sales_price)
FROM store_sales, store, date_dim
WHERE ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
	and s_state = 'TN'
GROUP BY ss_item_sk, d_year`

// PaperQ1CovVar is the cov/var alternative of Figure 1(a): theta1 =
// covar/var built-ins.
const PaperQ1CovVar = `SELECT ss_item_sk, d_year, avg(ss_list_price),
	avg(ss_sales_price),
	covar_pop(ss_list_price, ss_sales_price)/var_pop(ss_list_price)
FROM store_sales, store, date_dim
WHERE ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
	and s_state = 'TN'
GROUP BY ss_item_sk, d_year`

const PaperQ2 = `SELECT ss_item_sk, d_year, qm(ss_list_price), stddev(ss_list_price)
FROM store_sales, store, date_dim
WHERE ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
	and s_state = 'TN'
GROUP BY ss_item_sk, d_year`

const PaperQ3 = `SELECT d_year, qm(ss_list_price), stddev(ss_list_price)
FROM store_sales, store, date_dim, item
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk
	and ss_store_sk = s_store_sk and i_category = 'Sports'
	and s_state = 'TN' and d_year >= 2000
GROUP BY d_year`

// PaperV1 defines the view V1: Q1's data part holding the five partial
// aggregates (s1..s5 of RQ1; avg and theta1 contribute count, Σx, Σx²,
// Σy, Σxy) — the same statement as Q1.
const PaperV1 = PaperQ1

// Fig1 reproduces Figure 1 (serial) or Figure 2 (parallel).
func (r *Runner) Fig1(spark bool) {
	exp := "fig1"
	engine := "PostgreSQL-mode (serial)"
	if spark {
		exp = "fig2"
		engine = "Spark-mode (parallel)"
	}
	s := r.session(spark)
	s.ClearCache()
	s.DropView("v1_states")

	fmt.Fprintf(r.out, "\n== %s: motivating example, %s ==\n", strings.ToUpper(exp), engine)

	// (a) Q1: UDAF vs cov/var vs SUDAF.
	a1 := r.run(s, exp+"a", "Q1 UDAF", core.ModeBaseline, PaperQ1)
	a2 := r.run(s, exp+"a", "Q1 cov/var", core.ModeBaseline, PaperQ1CovVar)
	a3 := r.run(s, exp+"a", "Q1 SUDAF", core.ModeRewrite, PaperQ1)
	r.printRows("(a) Q1", []Measurement{a1, a2, a3})

	// (b) Q2 after Q1: baseline vs SUDAF no-share vs SUDAF share.
	b1 := r.run(s, exp+"b", "Q2 UDAF", core.ModeBaseline, PaperQ2)
	b2 := r.run(s, exp+"b", "Q2 SUDAF (no share)", core.ModeRewrite, PaperQ2)
	s.ClearCache()
	r.run(s, exp+"b", "Q1 warmup (share)", core.ModeShare, PaperQ1)
	b3 := r.run(s, exp+"b", "Q2 SUDAF (share, after Q1)", core.ModeShare, PaperQ2)
	r.printRows("(b) Q2 after Q1", []Measurement{b1, b2, b3})

	// (c) Q3 vs RQ3' (roll-up over the materialized state view V1).
	c1 := r.run(s, exp+"c", "Q3", core.ModeBaseline, PaperQ3)
	// No view is materialized yet, so this run cannot roll up.
	c2 := r.run(s, exp+"c", "Q3 SUDAF (no view)", core.ModeRewrite, PaperQ3)
	must(s.Materialize("v1_states", PaperV1))
	s.ClearCache() // isolate the view effect from the state cache
	c3 := r.run(s, exp+"c", "RQ3' (view roll-up)", core.ModeRewrite, PaperQ3)
	r.printRows("(c) Q3 vs RQ3'", []Measurement{c1, c2, c3})
	s.DropView("v1_states")
}

// ---- query models and aggregate sequences (Figures 6–9) ----

var (
	// AS1 and AS2 are the paper's two execution orders.
	AS1 = []string{"cm", "qm", "gm", "hm", "min", "max", "count", "std", "var", "sum", "avg"}
	AS2 = []string{"max", "min", "sum", "avg", "count", "std", "var", "cm", "gm", "hm", "qm"}
)

// aggSQL renders one aggregate call for a query model.
func aggSQL(agg, col string) string {
	if agg == "count" {
		return "count(*)"
	}
	return agg + "(" + col + ")"
}

// QueryModel renders query model m (1..3) instantiated with agg.
func QueryModel(m int, agg string) string {
	switch m {
	case 1:
		return "SELECT " + aggSQL(agg, "internet_traffic") + " FROM milan_data"
	case 2:
		return "SELECT square_id, " + aggSQL(agg, "internet_traffic") +
			" FROM milan_data GROUP BY square_id ORDER BY square_id LIMIT 20"
	case 3:
		return `SELECT i_item_id, ` + aggSQL(agg, "ss_quantity") + ` agg1, ` +
			aggSQL(agg, "ss_list_price") + ` agg2, ` +
			aggSQL(agg, "ss_coupon_amt") + ` agg3, ` +
			aggSQL(agg, "ss_sales_price") + ` agg4
FROM store_sales, customer_demographics, date_dim, item, promotion
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and
	ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and
	cd_gender = 'M' and cd_marital_status = 'S' and
	cd_education_status = 'College' and
	(p_channel_email = 'N' or p_channel_event = 'N') and d_year = 2000
GROUP BY i_item_id ORDER BY i_item_id LIMIT 100`
	}
	panic("bad query model")
}

// prefetchSQL builds the moment-sketch prefetch query for a model's data
// part (the paper prefetches MS(k=10) before AS2).
func prefetchSQL(m int) string {
	switch m {
	case 1:
		return "SELECT moment_sketch(internet_traffic) FROM milan_data"
	case 2:
		return "SELECT square_id, moment_sketch(internet_traffic) FROM milan_data GROUP BY square_id"
	case 3:
		return QueryModel(3, "moment_sketch")
	}
	panic("bad query model")
}

// SequenceResult is one (model, sequence, system) run.
type SequenceResult struct {
	Model    int
	Sequence string
	System   string
	PerQuery []Measurement
	Total    float64
	Prefetch float64 // seconds spent prefetching MS (AS2+share only)
}

// RunSequences reproduces Figures 6–9's data: for each query model and
// each sequence, the three systems' per-query and total times.
func (r *Runner) RunSequences(spark bool) []SequenceResult {
	exp := "fig6/8"
	if spark {
		exp = "fig7/9"
	}
	s := r.session(spark)
	var out []SequenceResult
	for _, model := range []int{1, 2, 3} {
		for _, seq := range []struct {
			name string
			aggs []string
		}{{"AS1", AS1}, {"AS2", AS2}} {
			for _, mode := range []core.Mode{core.ModeBaseline, core.ModeRewrite, core.ModeShare} {
				s.ClearCache()
				sr := SequenceResult{Model: model, Sequence: seq.name, System: mode.String()}
				if mode == core.ModeShare && seq.name == "AS2" {
					// Prefetch the moment sketch (excluded from totals, as
					// in the paper; we still record it).
					start := time.Now()
					_, err := s.Query(prefetchSQL(model), core.ModeShare)
					must(err)
					sr.Prefetch = time.Since(start).Seconds()
				}
				for _, agg := range seq.aggs {
					m := r.run(s, fmt.Sprintf("%s-m%d-%s", exp, model, seq.name),
						agg, mode, QueryModel(model, agg))
					sr.PerQuery = append(sr.PerQuery, m)
					sr.Total += m.Seconds
				}
				out = append(out, sr)
			}
		}
	}
	return out
}

// Fig6and8 runs and prints the serial sequence experiments; Fig7and9 the
// parallel ones.
func (r *Runner) Fig6and8(spark bool) []SequenceResult {
	label := "FIG6 (totals) + FIG8 (per query), PostgreSQL-mode"
	if spark {
		label = "FIG7 (totals) + FIG9 (per query), Spark-mode"
	}
	results := r.RunSequences(spark)
	fmt.Fprintf(r.out, "\n== %s ==\n", label)
	// Totals (Fig 6/7).
	tw := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "model\tsequence\tsystem\ttotal(s)\tprefetch(s)\n")
	for _, sr := range results {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.3f\t%.3f\n", sr.Model, sr.Sequence, sr.System, sr.Total, sr.Prefetch)
	}
	tw.Flush()
	// Per-query (Fig 8/9).
	for _, sr := range results {
		fmt.Fprintf(r.out, "\nmodel %d %s %s:", sr.Model, sr.Sequence, sr.System)
		for _, m := range sr.PerQuery {
			fmt.Fprintf(r.out, " %s=%.4fs", m.Label, m.Seconds)
		}
		fmt.Fprintln(r.out)
	}
	return results
}

// Fig10Aggs are the 16 aggregates of the random sequence.
var Fig10Aggs = []string{
	"min", "max", "sum", "avg", "hm", "qm", "cm", "gm", "std", "var",
	"skewness", "kurtosis", "approx_median", "count",
	"approx_first_quantile", "approx_thrid_quantile",
}

// Fig10 runs the random 200-query sequence over query model 2 in Spark
// mode, for the three systems, and prints summary statistics.
func (r *Runner) Fig10() {
	s := r.session(true)
	// The paper's list includes "approx_thrid_quantile" (sic); register
	// the alias so the workload strings match.
	_ = s.DefineSketchUDAF("approx_thrid_quantile", 10, 0.75)

	rng := rand.New(rand.NewSource(r.cfg.Seed + 10))
	seq := make([]string, r.cfg.Fig10Queries)
	for i := range seq {
		seq[i] = Fig10Aggs[rng.Intn(len(Fig10Aggs))]
	}
	fmt.Fprintf(r.out, "\n== FIG10: random %d-query sequence, Spark-mode, query model 2 ==\n", len(seq))
	type summary struct {
		total, mean, p50, p95 float64
	}
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeRewrite, core.ModeShare} {
		s.ClearCache()
		times := make([]float64, 0, len(seq))
		total := 0.0
		for i, agg := range seq {
			m := r.run(s, "fig10", fmt.Sprintf("%03d:%s", i, agg), mode, QueryModel(2, agg))
			times = append(times, m.Seconds)
			total += m.Seconds
		}
		sorted := append([]float64{}, times...)
		sort.Float64s(sorted)
		sum := summary{
			total: total,
			mean:  total / float64(len(times)),
			p50:   sorted[len(sorted)/2],
			p95:   sorted[len(sorted)*95/100],
		}
		fmt.Fprintf(r.out, "%-14s total=%8.3fs  mean=%8.4fs  p50=%8.4fs  p95=%8.4fs\n",
			mode.String(), sum.total, sum.mean, sum.p50, sum.p95)
	}
}

// Table1 prints the canonical forms SUDAF derives for the paper's
// Table 1 aggregations.
func (r *Runner) Table1() {
	s := core.NewSession(core.Options{Workers: 1})
	extra := []struct {
		name   string
		params []string
		body   string
	}{
		{"power_mean_p3", []string{"x"}, "(sum(x^3)/n)^(1/3)"},
		{"central_moment_2", []string{"x"}, "sum(x^2)/n - (sum(x)/n)^2"},
		{"stddev_t1", []string{"x"}, "sqrt(sum(x^2)/n - (sum(x)/n)^2)"},
	}
	for _, e := range extra {
		must(s.DefineUDAF(e.name, e.params, e.body))
	}
	fmt.Fprintf(r.out, "\n== TABLE 1: derived canonical forms ==\n")
	names := []string{"power_mean_p3", "gm", "stddev_t1", "central_moment_2",
		"logsumexp", "skewness", "covariance", "correlation"}
	for _, n := range names {
		f, ok := s.UDAF(n)
		if !ok {
			continue
		}
		fmt.Fprintf(r.out, "%s\n", f)
	}
}

// Space prints the symbolic sharing space (Figures 4/5).
func (r *Runner) Space() {
	s := core.NewSession(core.Options{Workers: 1})
	fmt.Fprintf(r.out, "\n== FIGURES 4/5: symbolic space saggs_2 ==\n%s", s.Space().Dump())
}

// printRows renders a block of measurements.
func (r *Runner) printRows(title string, ms []Measurement) {
	fmt.Fprintf(r.out, "%s\n", title)
	tw := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	for _, m := range ms {
		fmt.Fprintf(tw, "  %s\t%s\t%.4f s\trows=%d\n", m.Label, m.System, m.Seconds, m.Rows)
	}
	tw.Flush()
}
