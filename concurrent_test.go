package sudaf_test

// The concurrent stress suite: N goroutines issuing mixed
// Baseline/Rewrite/Share queries against one engine, asserting results
// stay bit-identical to a serial run and that cache/engine counters stay
// consistent. Runs in CI's race jobs (see .github/workflows/ci.yml).
//
// Bit-identity under concurrency holds because every serving path in the
// workload below is floating-point-exact: exact state-key hits return
// the deterministic morsel-merged values any recomputation would
// produce, and the only sharing rewritings reachable are linear scalings
// by powers of two (exact). Workloads whose rewritings are only
// approximately equal (e.g. Σln x reconstructed as ln Πx) are exercised
// separately without value assertions (TestConcurrentSharingPaths).

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sudaf"
	"sudaf/internal/faultinject"
)

// concTable builds the shared dataset: 40 interleaved groups, strictly
// positive values (so prod-family states cache directly).
func concTable(rows int) *sudaf.Table {
	rng := rand.New(rand.NewSource(42))
	tbl := sudaf.NewTable("sales",
		sudaf.NewColumn("g", sudaf.Int),
		sudaf.NewColumn("price", sudaf.Float),
		sudaf.NewColumn("qty", sudaf.Float))
	for i := 0; i < rows; i++ {
		tbl.Col("g").AppendInt(int64(i % 40))
		tbl.Col("price").AppendFloat(0.5 + rng.Float64()*2)
		tbl.Col("qty").AppendFloat(float64(rng.Intn(10) + 1))
	}
	return tbl
}

// concTable2 is a second table with distinct column names (the engine
// resolves columns by globally unique names), used for view roll-ups.
func concTable2(rows int) *sudaf.Table {
	rng := rand.New(rand.NewSource(43))
	tbl := sudaf.NewTable("sales2",
		sudaf.NewColumn("b", sudaf.Int),
		sudaf.NewColumn("c", sudaf.Int),
		sudaf.NewColumn("w", sudaf.Float))
	for i := 0; i < rows; i++ {
		tbl.Col("b").AppendInt(int64(i % 10))
		tbl.Col("c").AppendInt(int64(i % 7))
		tbl.Col("w").AppendFloat(0.5 + rng.Float64()*2)
	}
	return tbl
}

func concEngine(t testing.TB, opts sudaf.Options) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(opts)
	if err := eng.Register(concTable(24_000)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(concTable2(24_000)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// workItem is one query of the mixed workload.
type workItem struct {
	sql  string
	mode sudaf.Mode
}

// mixedWorkload is the bit-identity workload: every Share-mode serving
// path among these aggregates is fp-exact (exact state hits, or linear
// power-of-two rewritings).
func mixedWorkload() []workItem {
	return []workItem{
		{"SELECT g, avg(price), stddev(price) FROM sales GROUP BY g ORDER BY g", sudaf.Baseline},
		{"SELECT g, qm(price) FROM sales GROUP BY g ORDER BY g", sudaf.Baseline},
		{"SELECT g, qm(price), var(price) FROM sales GROUP BY g ORDER BY g", sudaf.Rewrite},
		{"SELECT g, min(price), max(price), count(*) FROM sales GROUP BY g", sudaf.Rewrite},
		{"SELECT g, qm(price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, stddev(price), avg(price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, var(price), cm(price), apm(price) FROM sales GROUP BY g", sudaf.Share},
		{"SELECT g, sum(price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, sum(2*price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, gm(price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT count(*), sum(qty) FROM sales", sudaf.Share},
	}
}

// sameTable demands bit-for-bit equality of two result tables.
func sameTable(t *testing.T, label string, want, got *sudaf.Table) {
	t.Helper()
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: %d vs %d columns", label, len(want.Cols), len(got.Cols))
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: %d vs %d rows", label, want.NumRows(), got.NumRows())
	}
	for ci, wc := range want.Cols {
		gc := got.Cols[ci]
		if wc.Name != gc.Name || wc.Kind != gc.Kind {
			t.Fatalf("%s: column %d is %s/%v vs %s/%v", label, ci, wc.Name, wc.Kind, gc.Name, gc.Kind)
		}
		for i := 0; i < want.NumRows(); i++ {
			switch wc.Kind {
			case sudaf.String:
				if wc.StringAt(i) != gc.StringAt(i) {
					t.Fatalf("%s: col %s row %d: %q vs %q", label, wc.Name, i, wc.StringAt(i), gc.StringAt(i))
				}
			default:
				wv, gv := wc.AsFloat(i), gc.AsFloat(i)
				if math.Float64bits(wv) != math.Float64bits(gv) && !(math.IsNaN(wv) && math.IsNaN(gv)) {
					t.Fatalf("%s: col %s row %d: %v (%#x) vs %v (%#x)",
						label, wc.Name, i, wv, math.Float64bits(wv), gv, math.Float64bits(gv))
				}
			}
		}
	}
}

// TestConcurrentQueriesBitIdentical is the core stress assertion: N
// goroutines hammering the mixed workload produce, for every query,
// exactly the table a serial run produces — regardless of interleaving,
// cache warmth or which goroutine populated which state.
func TestConcurrentQueriesBitIdentical(t *testing.T) {
	workload := mixedWorkload()

	// Serial reference run on its own engine.
	serial := concEngine(t, sudaf.Options{Workers: 2})
	want := make([]*sudaf.Table, len(workload))
	for i, w := range workload {
		res, err := serial.Query(w.sql, w.mode)
		if err != nil {
			t.Fatalf("serial %q: %v", w.sql, err)
		}
		want[i] = res.Table
	}

	// Concurrent run: G goroutines × R rounds, each round a random
	// permutation of the workload.
	eng := concEngine(t, sudaf.Options{Workers: 2})
	const goroutines = 6
	const rounds = 3
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(len(workload)) {
					w := workload[i]
					res, err := eng.Query(w.sql, w.mode)
					if err != nil {
						errCh <- err
						return
					}
					// Compare off the main test goroutine: collect a
					// mismatch as an error instead of t.Fatal.
					if res.Table.NumRows() != want[i].NumRows() {
						errCh <- errors.New("row count diverged for " + w.sql)
						return
					}
					for ci, wc := range want[i].Cols {
						gc := res.Table.Cols[ci]
						for row := 0; row < want[i].NumRows(); row++ {
							wv, gv := wc.AsFloat(row), gc.AsFloat(row)
							if math.Float64bits(wv) != math.Float64bits(gv) && !(math.IsNaN(wv) && math.IsNaN(gv)) {
								errCh <- errors.New("value diverged from serial for " + w.sql)
								return
							}
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiescent counter consistency: every lookup has exactly one outcome,
	// and the cache's structural invariants hold.
	cs := eng.CacheStats()
	if cs.Lookups != cs.ExactHits+cs.SharedHits+cs.SignHits+cs.Misses {
		t.Fatalf("lost stats increments: %+v", cs)
	}
	if err := eng.Session().Cache().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	es := eng.Stats()
	wantQueries := int64(goroutines * rounds * len(workload))
	if es.QueriesCompleted != wantQueries || es.QueriesFailed != 0 {
		t.Fatalf("engine stats: completed=%d failed=%d, want %d/0", es.QueriesCompleted, es.QueriesFailed, wantQueries)
	}

	// And a final serial pass on the concurrent engine still agrees —
	// whatever the cache now holds serves the same values.
	for i, w := range workload {
		res, err := eng.Query(w.sql, w.mode)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, "post-stress "+w.sql, want[i], res.Table)
	}
}

// TestConcurrentSharingPaths exercises the approximate sharing paths
// (sign-split reconstruction, log/exp rewritings) under concurrency with
// chaos — ClearCache and cache corruption mid-flight. Values here are
// interleaving-dependent by design (ln Πx vs Σln x differ in ulps), so
// the assertions are: queries never fail, reported values are close to
// the serial answer, and the cache's invariants survive.
func TestConcurrentSharingPaths(t *testing.T) {
	workload := []workItem{
		{"SELECT g, gm(price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, sum(ln(price)) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, logsumexp(ln(price)) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
		{"SELECT g, hm(price) FROM sales GROUP BY g ORDER BY g", sudaf.Share},
	}
	serial := concEngine(t, sudaf.Options{Workers: 2})
	want := make([]*sudaf.Table, len(workload))
	for i, w := range workload {
		res, err := serial.Query(w.sql, w.mode)
		if err != nil {
			t.Fatalf("serial %q: %v", w.sql, err)
		}
		want[i] = res.Table
	}

	eng := concEngine(t, sudaf.Options{Workers: 2})
	const goroutines = 5
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+2)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			for r := 0; r < 8; r++ {
				i := rng.Intn(len(workload))
				w := workload[i]
				res, err := eng.Query(w.sql, w.mode)
				if err != nil {
					errCh <- err
					return
				}
				for ci, wc := range want[i].Cols {
					gc := res.Table.Cols[ci]
					for row := 0; row < want[i].NumRows(); row++ {
						wv, gv := wc.AsFloat(row), gc.AsFloat(row)
						if math.Abs(wv-gv) > 1e-9*math.Max(1, math.Abs(wv)) {
							errCh <- errors.New("value drifted beyond tolerance for " + w.sql)
							return
						}
					}
				}
			}
		}(gi)
	}
	// Chaos alongside: cache clears and corruption. Both must degrade to
	// recomputation, never to failure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 6; r++ {
			eng.ClearCache()
			eng.Session().Cache().CorruptEntryForTest("")
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := eng.Session().Cache().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentViewRollup pins that roll-up rewriting from a static
// materialized view is deterministic under concurrency: concurrent
// Rewrite-mode roll-ups equal the serial roll-up bit for bit.
func TestConcurrentViewRollup(t *testing.T) {
	const viewSQL = "SELECT b, c, qm(w), stddev(w) FROM sales2 GROUP BY b, c"
	const rollupSQL = "SELECT b, qm(w), stddev(w) FROM sales2 GROUP BY b ORDER BY b"

	serial := concEngine(t, sudaf.Options{Workers: 2})
	if err := serial.Materialize("v_bc", viewSQL); err != nil {
		t.Fatal(err)
	}
	serial.ClearCache() // isolate the view path from the state cache
	wantRes, err := serial.Query(rollupSQL, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.UsedView != "v_bc" {
		t.Fatalf("serial roll-up did not use the view (used %q)", wantRes.UsedView)
	}

	eng := concEngine(t, sudaf.Options{Workers: 2})
	if err := eng.Materialize("v_bc", viewSQL); err != nil {
		t.Fatal(err)
	}
	eng.ClearCache()
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for gi := 0; gi < 6; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				res, err := eng.Query(rollupSQL, sudaf.Rewrite)
				if err != nil {
					errCh <- err
					return
				}
				if res.UsedView != "v_bc" {
					errCh <- errors.New("concurrent roll-up did not use the view")
					return
				}
				for ci, wc := range wantRes.Table.Cols {
					gc := res.Table.Cols[ci]
					for row := 0; row < wantRes.Table.NumRows(); row++ {
						if math.Float64bits(wc.AsFloat(row)) != math.Float64bits(gc.AsFloat(row)) {
							errCh <- errors.New("roll-up diverged from serial")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestAdmissionControl checks MaxConcurrentQueries: a fleet larger than
// the cap completes fully, and a caller whose context is already done
// fails with ErrCanceled instead of queueing forever.
func TestAdmissionControl(t *testing.T) {
	eng := concEngine(t, sudaf.Options{Workers: 2, MaxConcurrentQueries: 2})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Query("SELECT g, qm(price) FROM sales GROUP BY g", sudaf.Share); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if es := eng.Stats(); es.QueriesCompleted != 8 || es.QueriesFailed != 0 {
		t.Fatalf("engine stats after admission-controlled fleet: %+v", es)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.QueryContext(ctx, "SELECT count(*) FROM sales", sudaf.Share)
	if !errors.Is(err, sudaf.ErrCanceled) {
		t.Fatalf("pre-canceled context: got %v, want ErrCanceled", err)
	}

	// A batch occupies one admission slot like any query, so a batch that
	// had to wait for one counts as queued too: with a single slot held
	// by an in-flight (stalled) query, the batch queues exactly once.
	defer faultinject.Reset()
	one := concEngine(t, sudaf.Options{Workers: 2, MaxConcurrentQueries: 1})
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 200 * time.Millisecond, Times: 1})
	held := make(chan error, 1)
	go func() {
		_, err := one.Query("SELECT g, qm(price) FROM sales GROUP BY g", sudaf.Rewrite)
		held <- err
	}()
	for one.Stats().QueriesStarted == 0 { // started = admitted: the slot is taken
		time.Sleep(time.Millisecond)
	}
	if _, err := one.QueryBatch(context.Background(), []sudaf.Request{
		{SQL: "SELECT g, avg(price) FROM sales GROUP BY g"},
		{SQL: "SELECT g, var(price) FROM sales GROUP BY g"},
	}, sudaf.Rewrite); err != nil {
		t.Fatal(err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if es := one.Stats(); es.QueriesQueued != 1 || es.QueriesCompleted != 3 {
		t.Fatalf("queued batch: QueriesQueued=%d QueriesCompleted=%d, want 1 and 3", es.QueriesQueued, es.QueriesCompleted)
	}
}

// ---- focused regression tests for races fixed in this change ----
// Each test targets one pre-existing data race flushed out by the stress
// suite; they are meaningful primarily under -race.

// TestRaceDefineUDAFDuringQueries: the UDAF registry (isAgg reads during
// parse/plan) raced with DefineUDAF writes.
func TestRaceDefineUDAFDuringQueries(t *testing.T) {
	eng := concEngine(t, sudaf.Options{Workers: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := []string{"rm_a", "rm_b", "rm_c"}[i%3]
			if err := eng.DefineUDAF(name, []string{"x"}, "sqrt(sum(x^2)/count())"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 20; r++ {
		if _, err := eng.Query("SELECT g, qm(price) FROM sales GROUP BY g", sudaf.Rewrite); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRaceClearCacheDuringQueries: ClearCache swapped the cache pointer
// mid-query; queries now snapshot it at admission.
func TestRaceClearCacheDuringQueries(t *testing.T) {
	eng := concEngine(t, sudaf.Options{Workers: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				eng.ClearCache()
				eng.ResetCacheStats()
				_ = eng.CacheStats()
			}
		}
	}()
	for r := 0; r < 20; r++ {
		if _, err := eng.Query("SELECT g, stddev(price) FROM sales GROUP BY g", sudaf.Share); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRaceViewChurnDuringQueries: the view registry was read unlocked on
// the query path.
func TestRaceViewChurnDuringQueries(t *testing.T) {
	eng := concEngine(t, sudaf.Options{Workers: 2})
	if err := eng.Materialize("v_keep", "SELECT b, c, qm(w) FROM sales2 GROUP BY b, c"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Materialize("v_churn", "SELECT b, qm(w) FROM sales2 GROUP BY b"); err != nil {
				t.Error(err)
				return
			}
			eng.DropView("v_churn")
		}
	}()
	for r := 0; r < 15; r++ {
		// Either the roll-up or the base path may serve this — both are
		// correct; the race is the point.
		if _, err := eng.Query("SELECT b, qm(w) FROM sales2 GROUP BY b", sudaf.Rewrite); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRaceSubqueryTempAliases: materialized subqueries used to register
// their temp tables in the shared session catalog, so two concurrent
// queries using the same alias could clobber (or drop) each other's
// derived table. Temps now live in per-query catalog overlays.
func TestRaceSubqueryTempAliases(t *testing.T) {
	eng := concEngine(t, sudaf.Options{Workers: 2})
	const q = "SELECT avg(p2) FROM (SELECT price*2 p2 FROM sales) t"
	ref, err := eng.Query(q, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for gi := 0; gi < 6; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				res, err := eng.Query(q, sudaf.Rewrite)
				if err != nil {
					errCh <- err
					return
				}
				if math.Float64bits(res.Table.Cols[0].AsFloat(0)) != math.Float64bits(ref.Table.Cols[0].AsFloat(0)) {
					errCh <- errors.New("subquery result diverged under alias contention")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The shared catalog must not have leaked the temp alias.
	if eng.Session().Catalog().Has("t") {
		t.Fatal("subquery temp table leaked into the session catalog")
	}
}

// TestConcurrentQueryBatches: the streaming cursor entrypoint shares the
// concurrent query path.
func TestConcurrentQueryBatches(t *testing.T) {
	eng := concEngine(t, sudaf.Options{Workers: 2})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for gi := 0; gi < 4; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				cur, err := eng.QueryBatches(context.Background(), "SELECT g, sum(price) FROM sales GROUP BY g", sudaf.Share)
				if err != nil {
					errCh <- err
					return
				}
				rows := 0
				for cur.Next() {
					rows += cur.Batch().NumRows()
				}
				if err := cur.Err(); err != nil {
					errCh <- err
					return
				}
				if rows != 40 {
					errCh <- errors.New("unexpected row count from batch cursor")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestLookupAllAtomicUnderConcurrentPut: a cold Share-mode reader used to
// read the cache entry and then each state under separate acquisitions
// of the shard lock, so another reader's Put landing in between served
// the states without the entry and the query failed with "cache entry
// misaligned with result groups". ClearCache keeps the readers cold; every
// query must still answer.
func TestLookupAllAtomicUnderConcurrentPut(t *testing.T) {
	tbl := trSchema()
	for i := 0; i < 1000; i++ {
		addRow(tbl, int64(i%5), "a", float64(i%7))
	}
	eng := sudaf.Open(sudaf.Options{Workers: 2})
	if err := eng.Register(tbl); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			eng.ClearCache()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Query("SELECT count(*), sum(one) FROM tr", sudaf.Share)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if cnt, one := res.Table.Cols[0].AsFloat(0), res.Table.Cols[1].AsFloat(0); cnt != 1000 || one != 1000 {
					t.Errorf("reader %d: count %v, sum(one) %v, want 1000", r, cnt, one)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
