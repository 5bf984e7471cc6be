package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sudaf/internal/cache"
	"sudaf/internal/exec"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// newTestSession builds a session over a miniature TPC-DS-like schema:
// store_sales (fact), store, date_dim, item.
func newTestSession(t *testing.T, rows, workers int) *Session {
	t.Helper()
	s := NewSession(Options{Workers: workers})
	rng := rand.New(rand.NewSource(2024))

	const nStores, nItems, nYears = 6, 40, 4
	storeT := storage.NewTable("store",
		storage.NewColumn("s_store_sk", storage.KindInt),
		storage.NewColumn("s_state", storage.KindString))
	statesPool := []string{"TN", "CA", "TN", "NY", "TN", "WA"}
	for i := 0; i < nStores; i++ {
		storeT.Col("s_store_sk").AppendInt(int64(i))
		storeT.Col("s_state").AppendString(statesPool[i])
	}
	dateT := storage.NewTable("date_dim",
		storage.NewColumn("d_date_sk", storage.KindInt),
		storage.NewColumn("d_year", storage.KindInt))
	for i := 0; i < nYears*365; i++ {
		dateT.Col("d_date_sk").AppendInt(int64(i))
		dateT.Col("d_year").AppendInt(int64(1998 + i/365))
	}
	itemT := storage.NewTable("item",
		storage.NewColumn("i_item_sk", storage.KindInt),
		storage.NewColumn("i_category", storage.KindString))
	cats := []string{"Sports", "Books", "Home"}
	for i := 0; i < nItems; i++ {
		itemT.Col("i_item_sk").AppendInt(int64(i))
		itemT.Col("i_category").AppendString(cats[i%3])
	}
	sales := storage.NewTable("store_sales",
		storage.NewColumn("ss_item_sk", storage.KindInt),
		storage.NewColumn("ss_store_sk", storage.KindInt),
		storage.NewColumn("ss_sold_date_sk", storage.KindInt),
		storage.NewColumn("ss_list_price", storage.KindFloat),
		storage.NewColumn("ss_sales_price", storage.KindFloat))
	for i := 0; i < rows; i++ {
		sales.Col("ss_item_sk").AppendInt(int64(rng.Intn(nItems)))
		sales.Col("ss_store_sk").AppendInt(int64(rng.Intn(nStores)))
		sales.Col("ss_sold_date_sk").AppendInt(int64(rng.Intn(nYears * 365)))
		lp := 10 + rng.Float64()*90
		sales.Col("ss_list_price").AppendFloat(lp)
		sales.Col("ss_sales_price").AppendFloat(lp * (0.5 + rng.Float64()*0.5))
	}
	for _, tbl := range []*storage.Table{storeT, dateT, itemT, sales} {
		if err := s.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

const q1 = `SELECT ss_item_sk, d_year, avg(ss_list_price),
	avg(ss_sales_price), theta1(ss_list_price, ss_sales_price)
FROM store_sales, store, date_dim
WHERE ss_sold_date_sk = d_date_sk and
	ss_store_sk = s_store_sk and s_state = 'TN'
GROUP BY ss_item_sk, d_year ORDER BY ss_item_sk, d_year;`

const q2 = `SELECT ss_item_sk, d_year, qm(ss_list_price), stddev(ss_list_price)
FROM store_sales, store, date_dim
WHERE ss_sold_date_sk = d_date_sk and
	ss_store_sk = s_store_sk and s_state = 'TN'
GROUP BY ss_item_sk, d_year ORDER BY ss_item_sk, d_year;`

const q3 = `SELECT d_year, qm(ss_list_price), stddev(ss_list_price)
FROM store_sales, store, date_dim, item
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk
	and ss_store_sk = s_store_sk and i_category = 'Sports'
	and s_state = 'TN' and d_year >= 2000
GROUP BY d_year ORDER BY d_year;`

// tablesEqual compares two result tables cell-by-cell with tolerance.
func tablesEqual(t *testing.T, a, b *storage.Table, label string) {
	t.Helper()
	if a.NumRows() != b.NumRows() || len(a.Cols) != len(b.Cols) {
		t.Fatalf("%s: shape mismatch %dx%d vs %dx%d", label,
			a.NumRows(), len(a.Cols), b.NumRows(), len(b.Cols))
	}
	for c := range a.Cols {
		for i := 0; i < a.NumRows(); i++ {
			va, vb := a.Cols[c].AsFloat(i), b.Cols[c].AsFloat(i)
			if math.IsNaN(va) && math.IsNaN(vb) {
				continue
			}
			if math.Abs(va-vb) > 1e-6*(1+math.Abs(va)) {
				t.Fatalf("%s: col %d row %d: %v vs %v", label, c, i, va, vb)
			}
		}
	}
}

// TestModesAgree is the master correctness test: all three execution
// modes must produce identical results for the paper's queries.
func TestModesAgree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := newTestSession(t, 30000, workers)
		for _, q := range []string{q1, q2, q3} {
			base, err := s.Query(q, ModeBaseline)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			rw, err := s.Query(q, ModeRewrite)
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			sh, err := s.Query(q, ModeShare)
			if err != nil {
				t.Fatalf("share: %v", err)
			}
			tablesEqual(t, base.Table, rw.Table, "baseline vs rewrite")
			tablesEqual(t, base.Table, sh.Table, "baseline vs share")
		}
	}
}

// TestQ2SharesQ1States reproduces the paper's §2 scenario: after Q1 in
// share mode, Q2's states (count, Σx, Σx²) are fully cached, so Q2 reads
// zero base rows.
func TestQ2SharesQ1States(t *testing.T) {
	s := newTestSession(t, 20000, 1)
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	s.ResetCacheStats()
	res, err := s.Query(q2, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullCacheHit || res.RowsScanned != 0 {
		t.Fatalf("Q2 should be a full cache hit after Q1: %+v, stats %+v",
			res, s.CacheStats())
	}
	st := s.CacheStats()
	if st.ExactHits == 0 {
		t.Errorf("expected exact hits, stats %+v", st)
	}
	// Correctness: compare against a fresh baseline run.
	base, err := s.Query(q2, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, base.Table, res.Table, "Q2 cached vs baseline")
}

// TestQ1NotServableFromQ2 checks the converse: Q1 needs Σxy and Σy which
// Q2 never computed, so it must scan.
func TestQ1NotServableFromQ2(t *testing.T) {
	s := newTestSession(t, 10000, 1)
	if _, err := s.Query(q2, ModeShare); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(q1, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullCacheHit {
		t.Fatal("Q1 cannot be fully served from Q2's states")
	}
	if res.RowsScanned == 0 {
		t.Fatal("Q1 must scan for Σxy")
	}
}

// TestViewRewriting reproduces Q3 → RQ3': with V1 (the subquery of RQ1)
// materialized, Q3 rolls up from the view instead of scanning base data.
func TestViewRewriting(t *testing.T) {
	s := newTestSession(t, 20000, 1)
	// Ground truth: no view is materialized yet.
	direct, err := s.Query(q3, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize V1: Q1's data part with its aggregates.
	v1 := `SELECT ss_item_sk, d_year, count(*), sum(ss_list_price),
		qm(ss_list_price), theta1(ss_list_price, ss_sales_price)
	FROM store_sales, store, date_dim
	WHERE ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
		and s_state = 'TN'
	GROUP BY ss_item_sk, d_year`
	if err := s.Materialize("v1", v1); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(q3, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedView != "v1" {
		t.Fatalf("Q3 should roll up from v1, got view %q (rows scanned %d)",
			res.UsedView, res.RowsScanned)
	}
	if res.RowsScanned >= direct.RowsScanned {
		t.Errorf("roll-up should read far fewer rows: %d vs %d",
			res.RowsScanned, direct.RowsScanned)
	}
	tablesEqual(t, direct.Table, res.Table, "Q3 direct vs roll-up")
	// Dropping the view is the way back to base data.
	s.DropView("v1")
	after, err := s.Query(q3, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	if after.UsedView != "" || after.RowsScanned != direct.RowsScanned {
		t.Errorf("after DropView: view %q, %d rows scanned, want base scan of %d",
			after.UsedView, after.RowsScanned, direct.RowsScanned)
	}
	tablesEqual(t, direct.Table, after.Table, "Q3 direct vs after DropView")
}

// TestGMSharesMomentSketch: prefetching approx_median (moment sketch)
// caches Σ ln x, from which gm's Πx state is derived (case 2.3).
func TestGMSharesMomentSketch(t *testing.T) {
	s := newTestSession(t, 15000, 1)
	prefetch := `SELECT ss_item_sk, approx_median(ss_list_price)
		FROM store_sales GROUP BY ss_item_sk`
	if _, err := s.Query(prefetch, ModeShare); err != nil {
		t.Fatal(err)
	}
	s.ResetCacheStats()
	gmq := `SELECT ss_item_sk, gm(ss_list_price)
		FROM store_sales GROUP BY ss_item_sk ORDER BY ss_item_sk`
	res, err := s.Query(gmq, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullCacheHit {
		t.Fatalf("gm should be served from the moment sketch: %+v, stats %+v",
			res, s.CacheStats())
	}
	if s.CacheStats().SharedHits == 0 {
		t.Errorf("expected a Theorem 4.1 shared hit, stats %+v", s.CacheStats())
	}
	base, err := s.Query(gmq, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, base.Table, res.Table, "gm cached vs baseline")
}

// TestHMNotServedByMomentSketch: Σ x⁻¹ is not derivable from MS states
// (the paper's AS2 exception).
func TestHMNotServedByMomentSketch(t *testing.T) {
	s := newTestSession(t, 8000, 1)
	prefetch := `SELECT ss_item_sk, approx_median(ss_list_price)
		FROM store_sales GROUP BY ss_item_sk`
	if _, err := s.Query(prefetch, ModeShare); err != nil {
		t.Fatal(err)
	}
	hmq := `SELECT ss_item_sk, hm(ss_list_price) FROM store_sales GROUP BY ss_item_sk`
	res, err := s.Query(hmq, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullCacheHit || res.RowsScanned == 0 {
		t.Fatal("hm requires Σx⁻¹, which the moment sketch does not cache")
	}
}

// TestSequenceAS1 runs the paper's AS1 aggregate sequence and checks
// later aggregates reuse earlier states (count/var/sum/avg after cm..std).
func TestSequenceAS1(t *testing.T) {
	s := newTestSession(t, 10000, 1)
	seq := []string{"cm", "qm", "gm", "hm", "min", "max", "count", "std", "var", "sum", "avg"}
	fullHits := 0
	for _, agg := range seq {
		var q string
		if agg == "count" {
			q = "SELECT ss_item_sk, count(*) FROM store_sales GROUP BY ss_item_sk"
		} else {
			q = "SELECT ss_item_sk, " + agg + "(ss_list_price) FROM store_sales GROUP BY ss_item_sk"
		}
		res, err := s.Query(q, ModeShare)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if res.FullCacheHit {
			fullHits++
		}
	}
	// count, std(partially: needs count+Σx+Σx²: count cached from?? cm
	// caches Σx³+count; qm caches Σx²; sum/avg reuse Σx from std), var...
	if fullHits < 4 {
		t.Errorf("AS1 should see several full cache hits, got %d (stats %+v)",
			fullHits, s.CacheStats())
	}
}

// TestUDAFDefinitionErrors exercises the declarative front door.
func TestUDAFDefinitionErrors(t *testing.T) {
	s := NewSession(Options{Workers: 1})
	// Neither front door takes a name a SQL built-in answers to, in any
	// letter case, and a refused definition leaves the registry as it was.
	names := s.UDAFNames()
	slices.Sort(names)
	for _, name := range []string{"sum", "SUM", "Mean", "stddev_pop", "Covar", "COUNT"} {
		if err := s.DefineUDAF(name, []string{"x"}, "sum(x)"); err == nil {
			t.Errorf("DefineUDAF(%q): redefining a built-in must fail", name)
		}
		if err := s.DefineSketchUDAF(name, 10, 0.5); err == nil {
			t.Errorf("DefineSketchUDAF(%q): redefining a built-in must fail", name)
		}
	}
	after := s.UDAFNames()
	slices.Sort(after)
	if !slices.Equal(names, after) {
		t.Errorf("UDAFNames changed: %v, was %v", after, names)
	}
	if err := s.DefineUDAF("bad", []string{"x"}, "x + 1"); err == nil {
		t.Error("non-aggregate body must fail")
	}
	if err := s.DefineUDAF("bad2", []string{"x"}, "sum(x"); err == nil {
		t.Error("syntax error must fail")
	}
	if err := s.DefineUDAF("trimmed_mean", []string{"x"}, "sum(x)/count()"); err != nil {
		t.Errorf("valid definition failed: %v", err)
	}
	if _, ok := s.UDAF("trimmed_mean"); !ok {
		t.Error("UDAF not registered")
	}
}

// TestSubqueryMaterialization runs an RQ1-shaped query with a derived
// table through all modes.
func TestSubqueryMaterialization(t *testing.T) {
	s := newTestSession(t, 5000, 2)
	q := `SELECT ss_item_sk, s2/s1 avg_price
	FROM (SELECT ss_item_sk, count(*) s1, sum(ss_list_price) s2
	      FROM store_sales GROUP BY ss_item_sk) TEMP
	GROUP BY ss_item_sk ORDER BY ss_item_sk`
	// The outer query has no aggregates; use a plain aggregate-free shape.
	q = `SELECT ss_item_sk, s2/s1 avg_price
	FROM (SELECT ss_item_sk, count(*) s1, sum(ss_list_price) s2
	      FROM store_sales GROUP BY ss_item_sk) TEMP`
	res, err := s.Query(q, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against direct avg.
	direct, err := s.Query("SELECT ss_item_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_item_sk", ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != direct.Table.NumRows() {
		t.Fatalf("row mismatch: %d vs %d", res.Table.NumRows(), direct.Table.NumRows())
	}
	// Values match after aligning by item (both ordered differently
	// perhaps); build a map.
	want := map[int64]float64{}
	for i := 0; i < direct.Table.NumRows(); i++ {
		want[direct.Table.Cols[0].AsInt(i)] = direct.Table.Cols[1].AsFloat(i)
	}
	for i := 0; i < res.Table.NumRows(); i++ {
		k := res.Table.Cols[0].AsInt(i)
		got := res.Table.Cols[1].AsFloat(i)
		if math.Abs(got-want[k]) > 1e-9*(1+math.Abs(got)) {
			t.Fatalf("item %d: %v vs %v", k, got, want[k])
		}
	}
}

// TestCrossAggregateIntraQuerySharing: within one query, stddev and qm
// need the same Σx² and count states — the task registry must dedupe.
func TestCrossAggregateIntraQuerySharing(t *testing.T) {
	s := newTestSession(t, 5000, 1)
	q := `SELECT ss_item_sk, qm(ss_list_price), stddev(ss_list_price),
		variance(ss_list_price), avg(ss_list_price)
	FROM store_sales GROUP BY ss_item_sk`
	res, err := s.Query(q, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	// qm: {Σx², count}; stddev: {Σx², Σx, count}; var same; avg {Σx, count}
	// → 3 unique states total.
	entry, ok := cacheEntry(s.Cache(), mustKey(t, s, q).String())
	if !ok {
		t.Fatal("no cache entry")
	}
	if entry.NumStates() != 3 {
		t.Errorf("expected 3 deduped states, got %d: %v", entry.NumStates(), entry.StateKeys())
	}
	_ = res
}

// TestSubqueryTempStatementIsNotCached: a statement over a FROM-subquery
// reads a temporary materialized at a fresh version on every run, so its
// key can never be hit again. It must neither look up nor store; the
// inner statement caches as usual.
func TestSubqueryTempStatementIsNotCached(t *testing.T) {
	s := newTestSession(t, 2000, 1)
	const q = `SELECT avg(a) FROM
		(SELECT ss_item_sk, sum(ss_list_price) a FROM store_sales GROUP BY ss_item_sk) TEMP`
	for run := 0; run < 3; run++ {
		res, err := s.Query(q, ModeShare)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		exact, misses := 1, 0
		if run == 0 {
			exact, misses = 0, 1
		}
		if st.CacheExactHits != exact || st.CacheMisses != misses || st.CacheSharedHits+st.CacheSignHits != 0 {
			t.Errorf("run %d: stats %+v, want only the inner statement's lookup (exact %d, miss %d)", run, st, exact, misses)
		}
		if n := len(s.Cache().Snapshot()); n != 1 {
			t.Fatalf("run %d: %d cache entries, want 1 (the inner statement's)", run, n)
		}
	}
}

// cacheEntry fetches the group table cached under a fingerprint through
// LookupAll, the cache's one lookup entry point (no states wanted).
func cacheEntry(c *cache.Cache, fp string) (*cache.GroupTable, bool) {
	gt := c.LookupAll(fp, nil, nil, nil, nil, nil).Entry
	return gt, gt != nil
}

// mustKey resolves a statement's data key against the session catalog.
func mustKey(t *testing.T, s *Session, sql string) *exec.DataKey {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := s.eng.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return &dp.Key
}
