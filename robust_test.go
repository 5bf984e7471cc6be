package sudaf_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sudaf"
	"sudaf/internal/faultinject"
)

// negEngine builds an engine whose price column is strictly negative, so
// sqrt(sum(price)) is a numeric domain fault in every group.
func negEngine(t *testing.T) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(sudaf.Options{Workers: 2})
	tbl := sudaf.NewTable("sales",
		sudaf.NewColumn("region", sudaf.Int),
		sudaf.NewColumn("price", sudaf.Float))
	for i := 0; i < 1000; i++ {
		tbl.Col("region").AppendInt(int64(i % 4))
		tbl.Col("price").AppendFloat(-1 - float64(i%10))
	}
	if err := eng.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := eng.DefineUDAF("rootsum", []string{"x"}, "sqrt(sum(x))"); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNumericPolicyEndToEnd(t *testing.T) {
	const q = "SELECT region, rootsum(price) FROM sales GROUP BY region"
	for _, mode := range []sudaf.Mode{sudaf.Baseline, sudaf.Rewrite, sudaf.Share} {
		eng := negEngine(t)

		// Permissive (default): NaN flows through, counted and noted.
		res, err := eng.Query(q, mode)
		if err != nil {
			t.Fatalf("%v permissive: %v", mode, err)
		}
		if res.NumericFaults != 4 {
			t.Errorf("%v: NumericFaults = %d, want 4", mode, res.NumericFaults)
		}
		if len(res.Events) == 0 {
			t.Errorf("%v: permissive faults should be noted in Events", mode)
		}
		if !math.IsNaN(res.Table.Cols[1].F[0]) {
			t.Errorf("%v: want NaN output", mode)
		}

		// Strict: the query fails, naming the aggregate.
		eng.SetNumericPolicy(sudaf.NumericStrict)
		_, err = eng.Query(q, mode)
		if err == nil {
			t.Fatalf("%v strict: want error", mode)
		}
		if !strings.Contains(err.Error(), "numeric domain fault") {
			t.Errorf("%v strict: %v", mode, err)
		}
	}
}

func TestQueryContextCancellation(t *testing.T) {
	eng := demoEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.QueryContext(ctx, "SELECT region, sum(price) FROM sales GROUP BY region", sudaf.Share)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The engine is fine afterwards.
	if _, err := eng.Query("SELECT region, sum(price) FROM sales GROUP BY region", sudaf.Share); err != nil {
		t.Fatalf("engine broken after cancellation: %v", err)
	}
}

func TestQueryTimeout(t *testing.T) {
	defer faultinject.Reset()
	eng := demoEngine(t)
	eng.SetQueryTimeout(10 * time.Millisecond)
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 80 * time.Millisecond,
	})
	_, err := eng.Query("SELECT region, sum(price) FROM sales GROUP BY region", sudaf.Rewrite)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	faultinject.Reset()
	eng.SetQueryTimeout(0)
	if _, err := eng.Query("SELECT region, sum(price) FROM sales GROUP BY region", sudaf.Rewrite); err != nil {
		t.Fatalf("engine broken after timeout: %v", err)
	}
}

func TestCacheCorruptionFallsBackToRecompute(t *testing.T) {
	eng := demoEngine(t)
	const q = "SELECT region, variance(price) FROM sales GROUP BY region ORDER BY region"

	want, err := eng.Query(q, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: a repeat is a full cache hit.
	rep, err := eng.Query(q, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullCacheHit {
		t.Fatal("repeat query should be a full cache hit")
	}

	if n := eng.Session().Cache().CorruptEntryForTest(""); n == 0 {
		t.Fatal("nothing to corrupt — cache empty?")
	}
	got, err := eng.Query(q, sudaf.Share)
	if err != nil {
		t.Fatalf("corruption must degrade, not fail: %v", err)
	}
	if got.RowsScanned == 0 {
		t.Error("corrupt states should force recomputation from base data")
	}
	if len(got.Events) == 0 {
		t.Error("degradation should be recorded in Events")
	}
	for i := range want.Table.Cols[1].F {
		if math.Abs(got.Table.Cols[1].F[i]-want.Table.Cols[1].F[i]) > 1e-9 {
			t.Fatalf("group %d: recomputed %v != original %v", i,
				got.Table.Cols[1].F[i], want.Table.Cols[1].F[i])
		}
	}
	if eng.CacheStats().Corruptions == 0 {
		t.Error("Corruptions stat should count the dropped states")
	}
}

// TestLookupAllLazyCorruptionRecomputes: a corrupt state column is found
// when a lookup is about to serve it, not before. Queries that do not want
// it keep hitting with no event; EXPLAIN leaves it out of a miss's
// candidate list; the first query that wants it misses, records one event
// and recomputes — bit-identical to Rewrite.
func TestLookupAllLazyCorruptionRecomputes(t *testing.T) {
	eng := demoEngine(t)
	const (
		qVar = "SELECT region, variance(price) FROM sales GROUP BY region ORDER BY region"
		qMax = "SELECT region, max(price) FROM sales GROUP BY region ORDER BY region"
		qMin = "SELECT region, min(price) FROM sales GROUP BY region ORDER BY region"
	)
	for _, q := range []string{qVar, qMax} {
		if _, err := eng.Query(q, sudaf.Share); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := eng.Explain(qMax, sudaf.Share)
	if err != nil || len(ex.States) != 1 {
		t.Fatalf("explain %q: %v", qMax, err)
	}
	maxKey := ex.States[0].Key
	if n := eng.Session().Cache().CorruptEntryForTest("", maxKey); n != 1 {
		t.Fatalf("CorruptEntryForTest(%s) = %d, want 1", maxKey, n)
	}

	res, err := eng.Query(qVar, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullCacheHit || len(res.Events) != 0 || eng.CacheStats().Corruptions != 0 {
		t.Errorf("a query not wanting the corrupt column: full hit %v, events %v, corruptions %d",
			res.FullCacheHit, res.Events, eng.CacheStats().Corruptions)
	}
	ex, err = eng.Explain(qMin, sudaf.Share)
	if err != nil || len(ex.States) != 1 || ex.States[0].Hit != "miss" {
		t.Fatalf("explain %q: %v %+v", qMin, err, ex)
	}
	if cands := ex.States[0].Candidates; len(cands) != 3 || strings.Contains(strings.Join(cands, " "), maxKey) {
		t.Errorf("EXPLAIN candidates %v: want variance's three states, not the corrupt %s", cands, maxKey)
	}

	got, err := eng.Query(qMax, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(qMax, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if got.FullCacheHit || got.RowsScanned == 0 {
		t.Error("the corrupt column must be recomputed from base data")
	}
	if len(got.Events) != 1 || !strings.Contains(got.Events[0], "integrity") {
		t.Errorf("want one integrity event, got %v", got.Events)
	}
	if n := eng.CacheStats().Corruptions; n != 1 {
		t.Errorf("Corruptions = %d, want 1", n)
	}
	for c := range want.Table.Cols {
		for i := 0; i < want.Table.NumRows(); i++ {
			if math.Float64bits(got.Table.Cols[c].AsFloat(i)) != math.Float64bits(want.Table.Cols[c].AsFloat(i)) {
				t.Fatalf("column %d row %d: Share %v, Rewrite %v", c, i, got.Table.Cols[c].AsFloat(i), want.Table.Cols[c].AsFloat(i))
			}
		}
	}
}

func TestLoadCSVWithSkip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	data := "a:int,b:float\n1,1.5\nbad-row\n2,2.5\n3,oops\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict load fails with a line number.
	if _, err := sudaf.LoadCSV("t", path); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("strict load: %v", err)
	}

	tbl, skipped, err := sudaf.LoadCSVWith("t", path, sudaf.CSVOptions{SkipBadRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 || tbl.NumRows() != 2 {
		t.Fatalf("skipped=%d rows=%d, want 2/2", skipped, tbl.NumRows())
	}
}
