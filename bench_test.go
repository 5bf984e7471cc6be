package sudaf_test

// One benchmark per paper artifact (see DESIGN.md §5 for the experiment
// index). These run at reduced scale so `go test -bench=.` finishes in
// minutes; cmd/sudaf-bench regenerates the figures at full scale.
//
//	Fig 1(a)  BenchmarkFig1a_*   Q1: baseline UDAF vs cov/var vs SUDAF
//	Fig 1(b)  BenchmarkFig1b_*   Q2 after Q1: sharing
//	Fig 1(c)  BenchmarkFig1c_*   Q3 vs RQ3' (view roll-up)
//	Fig 2     BenchmarkFig2_*    the same, parallel engine
//	Fig 6/8   BenchmarkFig6_*    query models × systems (Milan, serial)
//	Fig 7/9   BenchmarkFig7_*    the same, parallel
//	Fig 10    BenchmarkFig10_*   random-sequence steady state
//	Table 1   BenchmarkTable1    canonicalization cost
//	Fig 4/5   BenchmarkSpace     symbolic space precomputation (110 ms
//	                             in the paper)

import (
	"sync"
	"testing"

	"sudaf"
	"sudaf/internal/bench"
	"sudaf/internal/data"
)

// The statements are the paper-figure harness's (internal/bench): one
// definition of Q1/Q2/Q3 and the query models.
var (
	benchQM1 = bench.QueryModel(1, "qm")
	benchQM2 = bench.QueryModel(2, "qm")
)

var (
	serialOnce sync.Once
	serialEng  *sudaf.Engine
	parOnce    sync.Once
	parEng     *sudaf.Engine
)

// benchEngine lazily builds a shared engine (serial or parallel) with
// TPC-DS scale 1 and 1M Milan rows.
func benchEngine(b *testing.B, parallel bool) *sudaf.Engine {
	b.Helper()
	build := func(workers int) *sudaf.Engine {
		eng := sudaf.Open(sudaf.Options{Workers: workers})
		for _, t := range data.TPCDS(1, 7) {
			if err := eng.Register(t); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Register(data.Milan(1_000_000, 10_000, 8)); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	if parallel {
		parOnce.Do(func() { parEng = build(0) })
		return parEng
	}
	serialOnce.Do(func() { serialEng = build(1) })
	return serialEng
}

// benchQuery times repeated executions of one query in one mode.
func benchQuery(b *testing.B, eng *sudaf.Engine, sql string, mode sudaf.Mode) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql, mode); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 1 (serial / "PostgreSQL") ----

func BenchmarkFig1a_Q1_BaselineUDAF(b *testing.B) {
	benchQuery(b, benchEngine(b, false), bench.PaperQ1, sudaf.Baseline)
}

func BenchmarkFig1a_Q1_CovVar(b *testing.B) {
	benchQuery(b, benchEngine(b, false), bench.PaperQ1CovVar, sudaf.Baseline)
}

func BenchmarkFig1a_Q1_SUDAF(b *testing.B) {
	benchQuery(b, benchEngine(b, false), bench.PaperQ1, sudaf.Rewrite)
}

func BenchmarkFig1b_Q2_BaselineUDAF(b *testing.B) {
	benchQuery(b, benchEngine(b, false), bench.PaperQ2, sudaf.Baseline)
}

func BenchmarkFig1b_Q2_SUDAFNoShare(b *testing.B) {
	benchQuery(b, benchEngine(b, false), bench.PaperQ2, sudaf.Rewrite)
}

func BenchmarkFig1b_Q2_SUDAFShareAfterQ1(b *testing.B) {
	eng := benchEngine(b, false)
	eng.ClearCache()
	if _, err := eng.Query(bench.PaperQ1, sudaf.Share); err != nil {
		b.Fatal(err)
	}
	benchQuery(b, eng, bench.PaperQ2, sudaf.Share)
}

func BenchmarkFig1c_Q3_Direct(b *testing.B) {
	// No view is materialized (the roll-up benchmark drops its own), so
	// Q3 runs against base data.
	benchQuery(b, benchEngine(b, false), bench.PaperQ3, sudaf.Rewrite)
}

func BenchmarkFig1c_RQ3_ViewRollup(b *testing.B) {
	eng := benchEngine(b, false)
	if err := eng.Materialize("v1_bench", bench.PaperV1); err != nil {
		b.Fatal(err)
	}
	defer eng.DropView("v1_bench")
	eng.ClearCache()
	benchQuery(b, eng, bench.PaperQ3, sudaf.Rewrite)
}

// ---- Figure 2 (parallel / "Spark") ----

func BenchmarkFig2a_Q1_BaselineUDAF(b *testing.B) {
	benchQuery(b, benchEngine(b, true), bench.PaperQ1, sudaf.Baseline)
}

func BenchmarkFig2a_Q1_SUDAF(b *testing.B) {
	benchQuery(b, benchEngine(b, true), bench.PaperQ1, sudaf.Rewrite)
}

func BenchmarkFig2b_Q2_SUDAFShareAfterQ1(b *testing.B) {
	eng := benchEngine(b, true)
	eng.ClearCache()
	if _, err := eng.Query(bench.PaperQ1, sudaf.Share); err != nil {
		b.Fatal(err)
	}
	benchQuery(b, eng, bench.PaperQ2, sudaf.Share)
}

// ---- Figures 6/8 (Milan, serial) and 7/9 (parallel) ----

func BenchmarkFig6_QM1_Baseline(b *testing.B) {
	benchQuery(b, benchEngine(b, false), benchQM1, sudaf.Baseline)
}

func BenchmarkFig6_QM1_SUDAFNoShare(b *testing.B) {
	benchQuery(b, benchEngine(b, false), benchQM1, sudaf.Rewrite)
}

func BenchmarkFig6_QM1_SUDAFShareWarm(b *testing.B) {
	eng := benchEngine(b, false)
	eng.ClearCache()
	if _, err := eng.Query(benchQM1, sudaf.Share); err != nil {
		b.Fatal(err)
	}
	benchQuery(b, eng, benchQM1, sudaf.Share)
}

func BenchmarkFig6_QM2_Baseline(b *testing.B) {
	benchQuery(b, benchEngine(b, false), benchQM2, sudaf.Baseline)
}

func BenchmarkFig6_QM2_SUDAFShareWarm(b *testing.B) {
	eng := benchEngine(b, false)
	eng.ClearCache()
	if _, err := eng.Query(benchQM2, sudaf.Share); err != nil {
		b.Fatal(err)
	}
	benchQuery(b, eng, benchQM2, sudaf.Share)
}

func BenchmarkFig7_QM1_Baseline(b *testing.B) {
	benchQuery(b, benchEngine(b, true), benchQM1, sudaf.Baseline)
}

func BenchmarkFig7_QM1_SUDAFNoShare(b *testing.B) {
	benchQuery(b, benchEngine(b, true), benchQM1, sudaf.Rewrite)
}

// ---- Figure 10: steady-state random sequence step ----

func BenchmarkFig10_RandomStep_Share(b *testing.B) {
	eng := benchEngine(b, true)
	eng.ClearCache()
	var queries []string
	for _, a := range []string{"qm", "cm", "std", "var", "avg", "skewness", "kurtosis"} {
		queries = append(queries, bench.QueryModel(2, a))
	}
	// Warm the cache with one pass.
	for _, q := range queries {
		if _, err := eng.Query(q, sudaf.Share); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(queries[i%len(queries)], sudaf.Share); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 1 and the symbolic space ----

func BenchmarkTable1_Canonicalize(b *testing.B) {
	eng := sudaf.Open(sudaf.Options{Workers: 1})
	for i := 0; i < b.N; i++ {
		if err := eng.DefineUDAF("bench_corr", []string{"x", "y"},
			"(n*sum(x*y)-sum(x)*sum(y))/(sqrt(n*sum(x^2)-sum(x)^2)*sqrt(n*sum(y^2)-sum(y)^2))"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpace_Precompute(b *testing.B) {
	// The paper reports 110 ms for precomputing saggs_2 relationships.
	for i := 0; i < b.N; i++ {
		eng := sudaf.Open(sudaf.Options{Workers: 1})
		_ = eng
	}
}
