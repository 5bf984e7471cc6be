package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/expr"
	"sudaf/internal/faultinject"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// runAgg prepares a statement and runs one sum(price) state task,
// returning the RunSpecs error (the path under test).
func runAgg(t *testing.T, e *Engine, ctx context.Context, sql string) error {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTaskRegistry()
	reg.Add("sum", func(b Binder) (Task, error) {
		return NewStateTask(canonical.State{Op: canonical.OpSum, Base: mustParseExpr(t, "price")}, b)
	})
	_, err = e.RunSpecs(ctx, dp, reg)
	return err
}

func mustParseExpr(t *testing.T, s string) expr.Node {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT " + s + " FROM x")
	if err != nil {
		t.Fatal(err)
	}
	return stmt.Select[0].Expr
}

func TestPreCanceledContext(t *testing.T) {
	cat := testCatalog(t, 1000)
	e := NewEngine(cat, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runAgg(t, e, ctx, "SELECT sum(price) FROM sales GROUP BY s_item")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCancelMidAggregation(t *testing.T) {
	defer faultinject.Reset()
	cat := testCatalog(t, 50_000)
	e := NewEngine(cat, 4)
	// Each worker sleeps at its first block, so the deadline expires while
	// the aggregation is genuinely mid-flight.
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 60 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := runAgg(t, e, ctx, "SELECT sum(price) FROM sales GROUP BY s_item")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestWorkerPanicIsolated(t *testing.T) {
	defer faultinject.Reset()
	cat := testCatalog(t, 10_000)
	e := NewEngine(cat, 4)
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{Kind: faultinject.KindPanic})
	err := runAgg(t, e, context.Background(), "SELECT sum(price) FROM sales GROUP BY s_item")
	if err == nil {
		t.Fatal("worker panic should surface as an error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should mention the recovered panic: %v", err)
	}
	// The process survived; the engine still works after the fault clears.
	faultinject.Reset()
	if err := runAgg(t, e, context.Background(), "SELECT sum(price) FROM sales GROUP BY s_item"); err != nil {
		t.Fatalf("engine broken after recovered panic: %v", err)
	}
}

func TestScanErrorFault(t *testing.T) {
	defer faultinject.Reset()
	cat := testCatalog(t, 1000)
	e := NewEngine(cat, 2)
	faultinject.Arm(faultinject.PointStorageScan, faultinject.Spec{Kind: faultinject.KindError})
	err := runAgg(t, e, context.Background(),
		"SELECT sum(price) FROM sales WHERE price > 10 GROUP BY s_item")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected scan error, got %v", err)
	}
}

func TestJoinErrorFault(t *testing.T) {
	defer faultinject.Reset()
	cat := testCatalog(t, 1000)
	e := NewEngine(cat, 2)
	faultinject.Arm(faultinject.PointExecJoin, faultinject.Spec{Kind: faultinject.KindError})
	err := runAgg(t, e, context.Background(),
		"SELECT sum(price) FROM sales, stores WHERE s_store = st_id GROUP BY s_item")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected join error, got %v", err)
	}
}

func TestJoinWorkerPanicIsolated(t *testing.T) {
	defer faultinject.Reset()
	cat := testCatalog(t, 10_000)
	e := NewEngine(cat, 4)
	// Panic after the join's own Hit (which fires first) is disarmed:
	// arm only the worker point, then run a join so both probe goroutines
	// and aggregation workers are in play.
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{Kind: faultinject.KindPanic, Times: 1})
	err := runAgg(t, e, context.Background(),
		"SELECT sum(price) FROM sales, stores WHERE s_store = st_id GROUP BY s_item")
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want recovered panic error, got %v", err)
	}
}

// buildNumericResult fabricates a one-group result whose single finisher
// yields the given value, then materializes it under the given policy.
func buildNumericResult(t *testing.T, val float64, pol NumericPolicy) (*Result, error) {
	t.Helper()
	kc := storage.NewColumn("g", storage.KindInt)
	kc.AppendInt(1)
	gr := &GroupResult{
		NumGroups:  1,
		Keys:       []GroupKey{{1, 0}},
		KeyNames:   []string{"g"},
		KeyColumns: []*storage.Column{kc},
		Values:     [][]float64{{val}},
	}
	stmt, err := sqlparse.Parse("SELECT g, __agg0 FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	spec := OutputSpec{
		Items:     stmt.Select,
		Finishers: []Finisher{func(vals [][]float64, g int) float64 { return vals[0][g] }},
		Labels:    []string{"sum(x)"},
		Numeric:   pol,
	}
	return BuildOutput(context.Background(), stmt, nil, gr, spec)
}

func TestNumericPolicyStrict(t *testing.T) {
	_, err := buildNumericResult(t, math.NaN(), NumericStrict)
	if err == nil {
		t.Fatal("strict policy should fail on NaN")
	}
	if !strings.Contains(err.Error(), "sum(x)") {
		t.Errorf("error should name the aggregate: %v", err)
	}
	if _, err := buildNumericResult(t, math.Inf(1), NumericStrict); err == nil {
		t.Fatal("strict policy should fail on +Inf")
	}
	if _, err := buildNumericResult(t, 42, NumericStrict); err != nil {
		t.Fatalf("strict policy rejected a finite value: %v", err)
	}
}

func TestNumericPolicyPermissive(t *testing.T) {
	res, err := buildNumericResult(t, math.NaN(), NumericPermissive)
	if err != nil {
		t.Fatalf("permissive policy should tolerate NaN: %v", err)
	}
	if res.NumericFaults != 1 {
		t.Errorf("NumericFaults = %d, want 1", res.NumericFaults)
	}
	if !math.IsNaN(res.Table.Cols[1].F[0]) {
		t.Error("NaN should pass through to the output")
	}
}

// The streaming merge under faults, on a table of many morsels: a worker
// error mid-scan must fail the query without stranding the workers that
// are blocked waiting for a morsel buffer, and a straggling first morsel
// (everything behind it queues, then the buffers run out) must change
// nothing in the result.

const robustMorsels = 12

func TestWorkerErrorMidScanReleasesBlockedWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 12-morsel table")
	}
	defer faultinject.Reset()
	cat := testCatalog(t, robustMorsels*MorselRows)
	for _, workers := range []int{1, 3, 8} {
		for _, after := range []int{0, 5, robustMorsels - 1} {
			faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{Kind: faultinject.KindError, After: after, Times: 1})
			err := runAgg(t, NewEngine(cat, workers), context.Background(), "SELECT sum(price) FROM sales GROUP BY s_item")
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("workers=%d after=%d: err = %v, want the injected fault", workers, after, err)
			}
		}
	}
}

func TestStragglingMorselKeepsMergeOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 12-morsel table")
	}
	defer faultinject.Reset()
	cat := testCatalog(t, robustMorsels*MorselRows)
	states := kernelStates(t)
	sql := "SELECT s_store, s_item, sum(price) FROM sales GROUP BY s_store, s_item"
	want := runStates(t, NewEngine(cat, 1), sql, states)
	// The first morsel claimed sleeps; the other workers finish every
	// later morsel they can get a buffer for, then wait on it.
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{Kind: faultinject.KindDelay, Times: 1, Delay: 100 * time.Millisecond})
	assertIdentical(t, "straggler", want, runStates(t, NewEngine(cat, 4), sql, states))
}

// mergePanicTask panics in Merge, which may run on a helper goroutine.
type mergePanicTask struct{ *StateTask }

func (*mergePanicTask) Merge(dst, src Partial, remap []int32) { panic("merge boom") }

func TestMergePanicIsolated(t *testing.T) {
	cat := testCatalog(t, 3*MorselRows)
	stmt, err := sqlparse.Parse("SELECT count(price) FROM sales GROUP BY s_item")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(cat, workers)
		dp, err := e.PrepareData(stmt)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewTaskRegistry()
		reg.Add("count", func(b Binder) (Task, error) {
			st, err := countTask(b)
			return &mergePanicTask{st}, err
		})
		if _, err := e.RunSpecs(context.Background(), dp, reg); err == nil || !strings.Contains(err.Error(), "merge boom") {
			t.Errorf("workers=%d: err = %v, want the recovered merge panic", workers, err)
		}
	}
}

// The first-appearance pass runs on the calling goroutine before any
// morsel. sparseDenseCatalog is its worst case: 16 morsels over a dense
// key whose odd values never occur, so the pass reads every row.
func sparseDenseCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	tbl := storage.NewTable("sparse", storage.NewColumn("k", storage.KindInt), storage.NewColumn("x", storage.KindFloat))
	for i := 0; i < 16*MorselRows; i++ {
		tbl.Col("k").AppendInt(2 * rng.Int63n(maxDenseKeyWidth/2))
		tbl.Col("x").AppendFloat(rng.Float64())
	}
	cat := catalog.New()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// pollCtx is a context whose Err reports cancellation from its (after+1)th
// call on, counting every call: the scan's polls are its clock.
type pollCtx struct {
	context.Context
	after int
	polls atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > int64(c.after) {
		return context.Canceled
	}
	return nil
}

const sparseDenseSQL = "SELECT k, count(x) FROM sparse GROUP BY k"

func runCount(t *testing.T, e *Engine, ctx context.Context, sql string) (*GroupResult, error) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTaskRegistry()
	reg.Add("count", func(b Binder) (Task, error) { return countTask(b) })
	return e.RunSpecs(ctx, dp, reg)
}

// countMorsels arms PointExecWorker to count its hits without firing.
func countMorsels() {
	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{After: math.MaxInt})
}

func TestCancelFirstAppearancePassMidScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16-morsel table")
	}
	defer faultinject.Reset()
	cat := sparseDenseCatalog(t)
	// A full run: the pass reads all rows, polling once per
	// cancelCheckRows, and every morsel passes the fault point once.
	countMorsels()
	full := &pollCtx{Context: context.Background(), after: math.MaxInt}
	gr, err := runCount(t, NewEngine(cat, 4), full, sparseDenseSQL)
	if err != nil {
		t.Fatal(err)
	}
	if gr.OrderRows != gr.Rows || gr.NumGroups != maxDenseKeyWidth/2 {
		t.Fatalf("pass read %d of %d rows into %d groups, want every row and %d groups", gr.OrderRows, gr.Rows, gr.NumGroups, maxDenseKeyWidth/2)
	}
	if hits := faultinject.HitCount(faultinject.PointExecWorker); hits != 16 {
		t.Fatalf("PointExecWorker reached %d times, want once per morsel (16)", hits)
	}
	passPolls := gr.Rows / cancelCheckRows
	if full.polls.Load() < int64(passPolls) {
		t.Fatalf("%d polls in a full run, want at least the pass's %d", full.polls.Load(), passPolls)
	}
	// Canceled before the pass starts, and halfway through it: the scan
	// returns the context's error at the poll that sees it, with no
	// further poll and no morsel started.
	for _, after := range []int{0, passPolls / 2} {
		countMorsels()
		ctx := &pollCtx{Context: context.Background(), after: after}
		_, err := runCount(t, NewEngine(cat, 4), ctx, sparseDenseSQL)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d polls: err = %v, want context.Canceled", after, err)
		}
		if polls := ctx.polls.Load(); polls != int64(after)+1 {
			t.Errorf("canceled after %d polls: %d polls in all, want the scan to stop at the first that saw it", after, polls)
		}
		if hits := faultinject.HitCount(faultinject.PointExecWorker); hits != 0 {
			t.Errorf("canceled after %d polls: %d morsels started", after, hits)
		}
	}
}
