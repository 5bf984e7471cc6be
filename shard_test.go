package sudaf_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sudaf"
	"sudaf/internal/faultinject"
)

// ---- shard-differential battery ----
//
// A sharded engine (Options.Shards > 1) must be observationally
// indistinguishable from an unsharded one: same result bits, same row
// accounting, same cache-hit breakdown, for every mode, on adversarial
// data (NaN, ±Inf meeting in one group, empty append batches folded in,
// single-row groups, dictionary string keys). The battery reuses the
// ingestion tests' tr data model, whose values are integer-valued so
// every ⊕ reduction is exact and comparisons are bit-for-bit.

// shardQueries is the differential query list: grouped/global/filtered
// aggregation, dict-string group keys, a fact⊕dimension join, and
// UDAFs whose states (Σx, Σx², Σx³, n, min, max) are exact on integer
// data so scatter-gather must reproduce them bit-identically.
var shardQueries = []struct {
	sql  string
	keys int
}{
	{"SELECT g, count(*), min(v), max(v) FROM tr GROUP BY g", 1},
	{"SELECT tag, sum(v), qm(v) FROM tr GROUP BY tag", 1},
	{"SELECT sum(v), count(*) FROM tr", 0},
	{"SELECT g, sum(v) FROM tr WHERE v > 0 GROUP BY g", 1},
	{"SELECT g, avg(v), var(v) FROM tr GROUP BY g", 1},
	{"SELECT g, skewness(v), cm(v) FROM tr GROUP BY g", 1},
	{"SELECT w, sum(v) FROM tr, trdim WHERE g = d_g GROUP BY w ORDER BY w", 1},
}

// trDim is a small dimension table joined against tr's group column.
func trDim() *sudaf.Table {
	d := sudaf.NewTable("trdim",
		sudaf.NewColumn("d_g", sudaf.Int),
		sudaf.NewColumn("w", sudaf.Int))
	for g := int64(0); g < 9; g++ {
		d.Col("d_g").AppendInt(g)
		d.Col("w").AppendInt(g % 3)
	}
	return d
}

// openShardTR builds an engine over a fresh copy of the adversarial tr
// data (all ingest batches concatenated) plus the dimension table.
func openShardTR(t *testing.T, shards int) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(sudaf.Options{Workers: 2, Shards: shards})
	if err := eng.Register(concatBatches(ingestBatches(), 4)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(trDim()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameStats compares the per-query observability record, excluding the
// timing fields.
func sameStats(t *testing.T, label string, a, b *sudaf.Result) {
	t.Helper()
	if a.RowsScanned != b.RowsScanned {
		t.Errorf("%s: RowsScanned %d vs %d", label, a.RowsScanned, b.RowsScanned)
	}
	if a.Groups != b.Groups {
		t.Errorf("%s: Groups %d vs %d", label, a.Groups, b.Groups)
	}
	if a.FullCacheHit != b.FullCacheHit {
		t.Errorf("%s: FullCacheHit %v vs %v", label, a.FullCacheHit, b.FullCacheHit)
	}
	as, bs := a.Stats, b.Stats
	if as.CacheExactHits != bs.CacheExactHits || as.CacheSharedHits != bs.CacheSharedHits ||
		as.CacheSignHits != bs.CacheSignHits || as.CacheMisses != bs.CacheMisses {
		t.Errorf("%s: cache stats differ: %+v vs %+v", label, as, bs)
	}
	if fmt.Sprint(as.Kernels) != fmt.Sprint(bs.Kernels) {
		t.Errorf("%s: kernels differ: %v vs %v", label, as.Kernels, bs.Kernels)
	}
}

// TestShardDifferentialBattery runs every query in every mode at shard
// counts {1, 2, 3, 7} — cold, then warm, then after ClearCache on both
// engines — and demands bit-identical results and identical row/cache
// accounting against an unsharded reference engine walked through the
// same sequence.
func TestShardDifferentialBattery(t *testing.T) {
	for _, mode := range []sudaf.Mode{sudaf.Baseline, sudaf.Rewrite, sudaf.Share} {
		for _, shards := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				ref := openShardTR(t, 0)
				shd := openShardTR(t, shards)
				for pass := 0; pass < 3; pass++ { // cold, warm, cleared
					if pass == 2 {
						ref.ClearCache()
						shd.ClearCache()
					}
					for _, q := range shardQueries {
						label := fmt.Sprintf("pass %d %q", pass, q.sql)
						want, err := ref.Query(q.sql, mode)
						if err != nil {
							t.Fatalf("%s: reference: %v", label, err)
						}
						got, err := shd.Query(q.sql, mode)
						if err != nil {
							t.Fatalf("%s: sharded: %v", label, err)
						}
						if diff := sameResultMaps(resultMap(want, q.keys), resultMap(got, q.keys)); diff != "" {
							t.Fatalf("%s: %s", label, diff)
						}
						sameStats(t, label, want, got)
					}
				}
				st := shd.ShardStats()
				switch {
				case shards <= 1:
					if st.Shards != 0 || st.Queries != 0 {
						t.Errorf("shards<=1 must be unsharded, stats %+v", st)
					}
				case mode == sudaf.Baseline:
					if st.Queries != 0 {
						t.Errorf("baseline mode must not distribute, stats %+v", st)
					}
				default:
					// The battery is vacuous unless queries really scattered.
					if st.Queries == 0 {
						t.Errorf("no query distributed at %d shards: %+v", shards, st)
					}
					if st.Scans < st.Queries*int64(shards) {
						t.Errorf("expected ≥ %d worker scans, got %+v", st.Queries*int64(shards), st)
					}
				}
			})
		}
	}
}

// TestShardTinyTables covers shard counts exceeding the row count:
// empty shards must contribute clean ⊕-identity partials.
func TestShardTinyTables(t *testing.T) {
	build := func() *sudaf.Table {
		tb := trSchema()
		addRow(tb, 1, "a", 4)
		addRow(tb, 1, "b", 2)
		addRow(tb, 3, "a", 7)
		return tb
	}
	for _, rows := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			mk := func(shards int) *sudaf.Engine {
				eng := sudaf.Open(sudaf.Options{Workers: 2, Shards: shards})
				full := build()
				tb := trSchema()
				for i := 0; i < rows; i++ {
					addRow(tb, full.Col("g").I[i], full.Col("tag").StringAt(i), full.Col("v").F[i])
				}
				if err := eng.Register(tb); err != nil {
					t.Fatal(err)
				}
				return eng
			}
			ref, shd := mk(0), mk(7)
			for _, q := range []struct {
				sql  string
				keys int
			}{
				{"SELECT g, sum(v), count(*) FROM tr GROUP BY g", 1},
				{"SELECT sum(v), count(*), min(v), max(v) FROM tr", 0},
			} {
				want, err := ref.Query(q.sql, sudaf.Share)
				if err != nil {
					t.Fatal(err)
				}
				got, err := shd.Query(q.sql, sudaf.Share)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResultMaps(resultMap(want, q.keys), resultMap(got, q.keys)); diff != "" {
					t.Fatalf("%q: %s", q.sql, diff)
				}
			}
		})
	}
}

// ---- shard chaos ----

var shardChaosPoints = []string{
	faultinject.PointShardScan,
	faultinject.PointShardMerge,
	faultinject.PointShardStall,
}

// TestShardChaosSweep arms each shard fault point with each kind on a
// sharded engine. Error and panic kinds must surface as exactly one
// typed error (ErrShard) with no partial result and no leaked
// goroutines; delays must not change the answer; and the engine must
// keep working after the sweep.
func TestShardChaosSweep(t *testing.T) {
	defer faultinject.Reset()
	eng := openShardTR(t, 3)
	const sql = "SELECT g, sum(v), qm(v) FROM tr GROUP BY g"

	faultinject.Reset()
	want, err := eng.Query(sql, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay}
	for _, point := range shardChaosPoints {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", point, kind), func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm(point, faultinject.Spec{Kind: kind, Delay: time.Millisecond})
				// Rewrite mode: no caches anywhere, so the fault point is on
				// every query's path.
				res, err := eng.Query(sql, sudaf.Rewrite)
				fired := faultinject.Fired(point) > 0
				if kind == faultinject.KindDelay {
					if err != nil {
						t.Fatalf("delay must not fail the query: %v", err)
					}
					if diff := sameResultMaps(resultMap(want, 1), resultMap(res, 1)); diff != "" {
						t.Fatalf("delay changed the answer: %s", diff)
					}
					return
				}
				if !fired {
					t.Fatalf("%s did not fire on a sharded query", point)
				}
				if err == nil {
					t.Fatal("injected shard fault must fail the query")
				}
				if res != nil {
					t.Fatal("failed query must not return a partial result")
				}
				if !errors.Is(err, sudaf.ErrShard) {
					t.Fatalf("error must wrap ErrShard: %v", err)
				}
			})
		}
	}

	// No goroutine leaks: cancelled/panicked scatters must be awaited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutine leak: %d after sweep, baseline %d", n, baseline)
	}

	faultinject.Reset()
	res, err := eng.Query(sql, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResultMaps(resultMap(want, 1), resultMap(res, 1)); diff != "" {
		t.Fatalf("engine damaged after sweep: %s", diff)
	}
}

// TestShardCancellation checks a deadline expiring mid-scatter surfaces
// as ErrCanceled (the shard wrapper keeps the cause).
func TestShardCancellation(t *testing.T) {
	defer faultinject.Reset()
	eng := openShardTR(t, 3)
	faultinject.Arm(faultinject.PointShardScan, faultinject.Spec{Kind: faultinject.KindDelay, Delay: 300 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := eng.QueryContext(ctx, "SELECT g, sum(v) FROM tr GROUP BY g", sudaf.Rewrite)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, sudaf.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestShardStallDuringClose arms a coordinator stall and closes the
// engine while the scatter is in flight: Close must drain — wait for
// the stalled query to finish cleanly — not abandon it.
func TestShardStallDuringClose(t *testing.T) {
	defer faultinject.Reset()
	eng := openShardTR(t, 3)
	faultinject.Arm(faultinject.PointShardStall, faultinject.Spec{Kind: faultinject.KindDelay, Delay: 300 * time.Millisecond})

	type out struct {
		res *sudaf.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := eng.Query("SELECT g, sum(v) FROM tr GROUP BY g", sudaf.Rewrite)
		done <- out{res, err}
	}()
	// Wait until the query is admitted (not a fixed sleep: under a loaded
	// CI runner the goroutine may take a while to start, and Close must
	// not win the race to admission).
	for deadline := time.Now().Add(5 * time.Second); eng.Stats().QueriesStarted == 0; {
		if time.Now().After(deadline) {
			t.Fatal("query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := eng.Close(ctx); err != nil {
		t.Fatalf("Close did not drain the stalled scatter: %v", err)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight query must finish cleanly across Close: %v", o.err)
	}
	if o.res == nil || o.res.Table.NumRows() == 0 {
		t.Fatal("drained query returned no result")
	}
	if time.Since(start) > 4*time.Second {
		t.Error("Close took suspiciously long; drain may have raced")
	}
}

// ---- append routing ----

// TestShardAppendRoutingDifferential drives the adversarial ingest
// batches through a sharded engine and checks, after every append, that
// results stay bit-identical to a cold unsharded engine over the
// concatenated data — and that the deltas really routed to the owning
// shard.
func TestShardAppendRoutingDifferential(t *testing.T) {
	batches := ingestBatches()
	eng := sudaf.Open(sudaf.Options{Workers: 2, Shards: 3})
	if err := eng.Register(copyTR(batches[0])); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	routed := int64(0)
	for k := 1; k < len(batches); k++ {
		if _, err := eng.Append(ctx, "tr", copyTR(batches[k])); err != nil {
			t.Fatalf("append %d: %v", k, err)
		}
		if batches[k].NumRows() > 0 {
			routed++
		}
		cold := openTR(t, concatBatches(batches, k))
		for _, q := range ingestQueries {
			want, err := cold.Query(q.sql, sudaf.Share)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Query(q.sql, sudaf.Share)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResultMaps(resultMap(want, q.keys), resultMap(got, q.keys)); diff != "" {
				t.Fatalf("after batch %d, %q: %s", k, q.sql, diff)
			}
		}
	}
	if st := eng.ShardStats(); st.AppendsRouted != routed {
		t.Errorf("AppendsRouted = %d, want %d (stats %+v)", st.AppendsRouted, routed, st)
	}
}

// TestShardAppendRace runs appends racing sharded share-mode queries.
// Every query must observe a coherent snapshot: count(*) == sum(one)
// exactly, and the count lands on a batch boundary (never mid-append).
func TestShardAppendRace(t *testing.T) {
	const batchRows = 50
	base := trSchema()
	for i := 0; i < 1000; i++ {
		addRow(base, int64(i%5), "a", float64(i%7))
	}
	eng := sudaf.Open(sudaf.Options{Workers: 2, Shards: 3})
	if err := eng.Register(base); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 30; i++ {
			delta := trSchema()
			for j := 0; j < batchRows; j++ {
				addRow(delta, int64(rng.Intn(6)), "b", float64(rng.Intn(9)))
			}
			if _, err := eng.Append(ctx, "tr", delta); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		close(stop)
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
				cnt := res.Table.Cols[0].AsFloat(0)
				one := res.Table.Cols[1].AsFloat(0)
				if cnt != one {
					t.Errorf("reader %d: torn snapshot: count %v != sum(one) %v", r, cnt, one)
					return
				}
				if int(cnt-1000)%batchRows != 0 {
					t.Errorf("reader %d: count %v not on an append boundary", r, cnt)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// Final state identical to a cold engine over the same total.
	res, err := eng.Query("SELECT g, sum(v), count(*) FROM tr GROUP BY g", sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("no groups after race")
	}
}

// TestShardExplainProvenance checks EXPLAIN on a 4-shard engine lists
// one line per shard and that their row ranges cover exactly the rows a
// cold query scans.
func TestShardExplainProvenance(t *testing.T) {
	eng := openShardTR(t, 4)
	const sql = "SELECT g, sum(v), qm(v) FROM tr GROUP BY g"

	cold, err := eng.Query(sql, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain(sql, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(ex.String(), "\n  shard "); len(ex.Shards) != 4 || n != 4 {
		t.Fatalf("EXPLAIN shows %d shards in %d lines, want 4:\n%s", len(ex.Shards), n, ex)
	}
	rows := 0
	for _, es := range ex.Shards {
		rows += es.Rows
	}
	if rows != cold.RowsScanned {
		t.Errorf("shard rows sum to %d, query scanned %d", rows, cold.RowsScanned)
	}
}

// copyTR deep-copies a tr batch so each engine registers its own table.
func copyTR(src *sudaf.Table) *sudaf.Table {
	out := trSchema()
	for i := 0; i < src.NumRows(); i++ {
		addRow(out, src.Col("g").I[i], src.Col("tag").StringAt(i), src.Col("v").F[i])
	}
	return out
}
