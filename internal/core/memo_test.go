package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sudaf/internal/faultinject"
	"sudaf/internal/obs"
	"sudaf/internal/storage"
)

// memoTable holds small integer-valued floats: power sums to x^10 stay
// exact in float64, so the sketch states — and with them the solver's
// output bits — do not depend on how a scan or an append delta associated
// them, and Rewrite is a bit-exact reference for Share.
func memoTable(rows int, seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	t := storage.NewTable("m",
		storage.NewColumn("g", storage.KindInt),
		storage.NewColumn("x", storage.KindFloat),
		storage.NewColumn("y", storage.KindFloat))
	for i := 0; i < rows; i++ {
		t.Col("g").AppendInt(int64(i % 24))
		t.Col("x").AppendFloat(float64(1 + rng.Intn(16)))
		t.Col("y").AppendFloat(float64(1 + rng.Intn(8)))
	}
	return t
}

func memoSession(t *testing.T, opts Options) *Session {
	t.Helper()
	opts.TraceRate = 1
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s := NewSession(opts)
	if err := s.Register(memoTable(2400, 1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// finisherAttr reads one attribute of a traced result's finisher span.
func finisherAttr(t *testing.T, res *Result, key string) int64 {
	t.Helper()
	var sp *obs.Span
	if res.Trace != nil {
		sp = res.Trace.Find("finisher")
	}
	if sp != nil {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Int
			}
		}
	}
	t.Fatalf("no finisher span attribute %q", key)
	return 0
}

func mustQuery(t *testing.T, s *Session, sql string, mode Mode) *Result {
	t.Helper()
	res, err := s.Query(sql, mode)
	if err != nil {
		t.Fatalf("%s %q: %v", mode, sql, err)
	}
	return res
}

// checkMemoized runs sql cold in Share mode (T solved, column stored),
// then again (column read), and requires both bit-identical to Rewrite's
// per-group solve. calls is the number of hardcoded-T aggregates in sql.
func checkMemoized(t *testing.T, s *Session, sql string, calls int64) {
	t.Helper()
	ref := mustQuery(t, s, sql, ModeRewrite)
	first := mustQuery(t, s, sql, ModeShare)
	if hits := finisherAttr(t, first, "memo_hits"); hits != 0 {
		t.Errorf("%q: %d memo hits on a cold cache", sql, hits)
	}
	tablesBitIdentical(t, ref.Table, first.Table, "share (solving) vs rewrite: "+sql)
	before := s.CacheStats().FinalHits
	second := mustQuery(t, s, sql, ModeShare)
	if hits, solved := finisherAttr(t, second, "memo_hits"), finisherAttr(t, second, "solved_groups"); hits != calls || solved != 0 {
		t.Errorf("%q: repeat has memo_hits=%d solved_groups=%d, want %d and 0", sql, hits, solved, calls)
	}
	if got := s.CacheStats().FinalHits - before; got != calls {
		t.Errorf("%q: FinalHits moved by %d, want %d", sql, got, calls)
	}
	tablesBitIdentical(t, ref.Table, second.Table, "share (memoized) vs rewrite: "+sql)
}

func TestMemoizedFinisherMatchesSolver(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		calls     int64
	}{
		{"grand", "SELECT approx_median(x) FROM m", 1},
		{"grouped", "SELECT g, approx_median(x), approx_first_quantile(x), avg(x) FROM m GROUP BY g ORDER BY g", 2},
		{"region", "SELECT g, approx_third_quantile(x) FROM m WHERE g >= 5 and g < 17 GROUP BY g", 1},
		{"two columns", "SELECT g, approx_median(x), approx_median(y) FROM m GROUP BY g ORDER BY g", 2},
		{"inside an expression", "SELECT g, approx_third_quantile(x) - approx_first_quantile(x) iqr FROM m GROUP BY g ORDER BY g", 2},
		{"windowed", "SELECT approx_median(x) OVER (ROWS 199 PRECEDING) FROM m", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkMemoized(t, memoSession(t, Options{}), tc.sql, tc.calls)
		})
	}
}

// TestMemoNotStoredByLimitedQuery: ORDER BY key LIMIT n finishes n groups,
// so it must solve only those and store nothing; once an unlimited query
// has stored the column, the limited one reads it, compacted with the rest
// of the value matrix.
func TestMemoNotStoredByLimitedQuery(t *testing.T) {
	s := memoSession(t, Options{})
	const all = "SELECT g, approx_median(x) FROM m GROUP BY g"
	const top = all + " ORDER BY g DESC LIMIT 5"
	ref := mustQuery(t, s, top, ModeRewrite)
	for i := 0; i < 2; i++ { // the second run is a full state hit, and still must not store
		res := mustQuery(t, s, top, ModeShare)
		if hits, solved := finisherAttr(t, res, "memo_hits"), finisherAttr(t, res, "solved_groups"); hits != 0 || solved != 5 {
			t.Fatalf("limited run %d: memo_hits=%d solved_groups=%d, want 0 and 5", i, hits, solved)
		}
		tablesBitIdentical(t, ref.Table, res.Table, "limited")
	}
	ex, err := s.ExplainQuery(all, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Aggregates[0].HardT; got != "solved" {
		t.Fatalf("EXPLAIN says %q after limited queries only, want solved", got)
	}
	if res := mustQuery(t, s, all, ModeShare); finisherAttr(t, res, "solved_groups") != 24 {
		t.Fatal("the unlimited query did not solve every group")
	}
	if ex, _ = s.ExplainQuery(all, ModeShare); ex.Aggregates[0].HardT != "memoized" {
		t.Fatalf("EXPLAIN says %q after the unlimited query, want memoized", ex.Aggregates[0].HardT)
	}
	res := mustQuery(t, s, top, ModeShare)
	if hits, solved := finisherAttr(t, res, "memo_hits"), finisherAttr(t, res, "solved_groups"); hits != 1 || solved != 0 {
		t.Errorf("limited run over a stored column: memo_hits=%d solved_groups=%d, want 1 and 0", hits, solved)
	}
	tablesBitIdentical(t, ref.Table, res.Table, "limited, memoized")
}

func TestMemoQueryBatchMember(t *testing.T) {
	s := memoSession(t, Options{})
	reqs := []Request{
		{SQL: "SELECT g, approx_median(x) FROM m GROUP BY g ORDER BY g"},
		{SQL: "SELECT g, approx_median(x), sum(y) FROM m GROUP BY g ORDER BY g"},
	}
	ref := mustQuery(t, s, reqs[0].SQL, ModeRewrite)
	for round := 0; round < 2; round++ {
		out, err := s.QueryBatch(context.Background(), reqs, ModeShare)
		if err != nil {
			t.Fatal(err)
		}
		tablesBitIdentical(t, ref.Table, out[0].Table, "batch member")
		for i := 0; i < ref.Table.NumRows(); i++ {
			a, b := ref.Table.Cols[1].F[i], out[1].Table.Cols[1].F[i]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round %d row %d: second member's median %v, want %v", round, i, b, a)
			}
		}
	}
	if s.CacheStats().FinalHits == 0 {
		t.Error("no batch member ever read the memoized column")
	}
}

// TestMemoInvalidation: every way the states behind a final can change or
// vanish — append (new epoch), restart, ClearCache, another q under the
// same UDAF name — ends with a fresh solve, never a stale column.
func TestMemoInvalidation(t *testing.T) {
	const sql = "SELECT g, approx_median(x) FROM m GROUP BY g ORDER BY g"
	warm := func(t *testing.T, s *Session) *Result {
		t.Helper()
		mustQuery(t, s, sql, ModeShare)
		res := mustQuery(t, s, sql, ModeShare)
		if finisherAttr(t, res, "memo_hits") != 1 {
			t.Fatal("set-up: the repeat did not read the memo")
		}
		return res
	}
	fresh := func(t *testing.T, s *Session, what string) *Result {
		t.Helper()
		res := mustQuery(t, s, sql, ModeShare)
		if hits := finisherAttr(t, res, "memo_hits"); hits != 0 {
			t.Fatalf("%s: a final was served (memo_hits=%d)", what, hits)
		}
		tablesBitIdentical(t, mustQuery(t, s, sql, ModeRewrite).Table, res.Table, what)
		return res
	}
	differ := func(a, b *storage.Table) bool {
		for i := 0; i < a.NumRows(); i++ {
			if a.Cols[1].F[i] != b.Cols[1].F[i] {
				return true
			}
		}
		return false
	}

	t.Run("append", func(t *testing.T) {
		s := memoSession(t, Options{})
		before := warm(t, s)
		delta := memoTable(1200, 2)
		for i := range delta.Col("x").F {
			delta.Col("x").F[i] = 16 // drag every group's median up
		}
		if _, err := s.Append(context.Background(), "m", delta); err != nil {
			t.Fatal(err)
		}
		after := fresh(t, s, "after append")
		if !after.FullCacheHit {
			t.Error("the appended entry was not delta-maintained; the test no longer covers MergeDelta's successor")
		}
		if !differ(before.Table, after.Table) {
			t.Error("the median ignores the appended rows")
		}
		if res := mustQuery(t, s, sql, ModeShare); finisherAttr(t, res, "memo_hits") != 1 {
			t.Error("the new epoch's column was not memoized in turn")
		}
	})
	t.Run("save and reopen", func(t *testing.T) {
		dir := t.TempDir()
		s := memoSession(t, Options{DataDir: dir})
		before := warm(t, s)
		if err := s.Save(); err != nil {
			t.Fatal(err)
		}
		s2 := NewSession(Options{Workers: 2, DataDir: dir, TraceRate: 1})
		if err := s2.LoadError(); err != nil {
			t.Fatal(err)
		}
		after := fresh(t, s2, "after reopen")
		if !after.FullCacheHit {
			t.Error("states were not restored; finals alone must be what is not persisted")
		}
		tablesBitIdentical(t, before.Table, after.Table, "reopened vs memoized")
	})
	t.Run("clear cache", func(t *testing.T) {
		s := memoSession(t, Options{})
		before := warm(t, s)
		s.ClearCache()
		tablesBitIdentical(t, before.Table, fresh(t, s, "after ClearCache").Table, "cleared vs memoized")
	})
	t.Run("redefined with another q", func(t *testing.T) {
		s := memoSession(t, Options{})
		before := warm(t, s)
		if err := s.DefineSketchUDAF("approx_median", 10, 0.9); err != nil {
			t.Fatal(err)
		}
		after := fresh(t, s, "after redefinition")
		if !after.FullCacheHit {
			t.Error("the states are the same; only the final must miss")
		}
		if !differ(before.Table, after.Table) {
			t.Error("q=0.9 answered with the q=0.5 column")
		}
	})
}

// TestMemoConcurrentColdQueries: eight goroutines race the same cold
// sketch query. Whoever inserts the entry stores the column; everyone
// answers identically and the entry ends up holding exactly one final.
func TestMemoConcurrentColdQueries(t *testing.T) {
	s := memoSession(t, Options{})
	const sql = "SELECT g, approx_median(x) FROM m GROUP BY g ORDER BY g"
	ref := mustQuery(t, s, sql, ModeRewrite)
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Query(sql, ModeShare)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		tablesBitIdentical(t, ref.Table, res.Table, "concurrent cold query")
	}
	entry, ok := cacheEntry(s.Cache(), mustKey(t, s, sql).String())
	if !ok {
		t.Fatal("no entry cached")
	}
	if n := entry.NumFinals(); n != 1 {
		t.Errorf("entry holds %d finals, want exactly 1", n)
	}
	if err := s.Cache().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoDegradesUnderCacheFaults: a failing cache get, a corrupted entry
// or a panicking cache all end in a solve over recomputed states.
func TestMemoDegradesUnderCacheFaults(t *testing.T) {
	const sql = "SELECT g, approx_median(x) FROM m GROUP BY g ORDER BY g"
	s := memoSession(t, Options{})
	ref := mustQuery(t, s, sql, ModeRewrite)
	mustQuery(t, s, sql, ModeShare)
	mustQuery(t, s, sql, ModeShare)

	t.Cleanup(faultinject.Reset)
	for _, after := range []int{0, 1, 7, 22} { // fail the get of the first, second, ... source state
		faultinject.Reset()
		faultinject.Arm(faultinject.PointCacheGet, faultinject.Spec{Kind: faultinject.KindError, After: after, Times: 1})
		res := mustQuery(t, s, sql, ModeShare)
		if hits := finisherAttr(t, res, "memo_hits"); hits != 0 {
			t.Errorf("get fault after %d: a final was served over a state that was not", after)
		}
		tablesBitIdentical(t, ref.Table, res.Table, "cache get fault")
	}
	faultinject.Reset()
	faultinject.Arm(faultinject.PointCacheGet, faultinject.Spec{Kind: faultinject.KindPanic, Times: 1})
	tablesBitIdentical(t, ref.Table, mustQuery(t, s, sql, ModeShare).Table, "cache get panic")
	faultinject.Reset()

	if res := mustQuery(t, s, sql, ModeShare); finisherAttr(t, res, "memo_hits") != 1 {
		t.Fatal("the memo did not come back once the faults stopped")
	}
	if s.Cache().CorruptEntryForTest("") == 0 {
		t.Fatal("nothing to corrupt")
	}
	res := mustQuery(t, s, sql, ModeShare)
	if hits := finisherAttr(t, res, "memo_hits"); hits != 0 || res.RowsScanned == 0 {
		t.Errorf("corrupt entry: memo_hits=%d rows scanned=%d, want a rescan and a solve", hits, res.RowsScanned)
	}
	tablesBitIdentical(t, ref.Table, res.Table, "corrupt entry")
	if err := s.Cache().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
