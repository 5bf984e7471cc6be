package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/errs"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/obs"
	"sudaf/internal/scalar"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// QueryStats is the per-query observability record attached to every
// Result: what the query cost and how the cache served it.
type QueryStats struct {
	// WallTime is the query's execution time (admission wait excluded).
	WallTime time.Duration
	// QueueWait is the time spent waiting for an admission slot (0 when
	// MaxConcurrentQueries is unset or a slot was free).
	QueueWait time.Duration
	// RowsScanned is the number of joined base rows read.
	RowsScanned int
	// CacheExactHits / CacheSharedHits / CacheSignHits / CacheMisses
	// count this query's state lookups by outcome (share mode only).
	CacheExactHits  int
	CacheSharedHits int
	CacheSignHits   int
	CacheMisses     int
	// Kernels names the aggregation tasks that ran through compiled batch
	// kernels (empty when nothing executed or kernels were off).
	Kernels []string
}

// Result is a finished SUDAF query.
type Result struct {
	Table *storage.Table
	// RowsScanned is the number of joined base rows read; 0 means the
	// query was answered entirely from the cache.
	RowsScanned int
	// Groups before LIMIT.
	Groups int
	// UsedView names the materialized view a roll-up rewriting used.
	UsedView string
	// FullCacheHit reports that no execution was needed.
	FullCacheHit bool
	// NumericFaults counts NaN/±Inf aggregate outputs observed under the
	// permissive numeric policy.
	NumericFaults int
	// Events records degradation events: cache states dropped after
	// failing integrity checks, recovered cache faults, numeric faults
	// tolerated under the permissive policy. The query still succeeded —
	// these report *how*.
	Events []string
	// Stats is the per-query cost/cache observability record.
	Stats QueryStats
	// Trace is this query's span tree, present only when the session's
	// TraceRate sampled it (nil otherwise). Render with Trace.Tree() or
	// Trace.JSON().
	Trace *obs.Trace
}

// queryCtx is the shared-nothing per-call state of one query: the
// catalog snapshot (which pins one version of every table the query
// touches, so concurrent appends never surface mid-query — the MVCC-lite
// read side of ingestion), the cache snapshot the whole query runs
// against, and the stats tallies. Nothing in it is shared between
// concurrent queries.
type queryCtx struct {
	cat   *catalog.Catalog
	cache *cache.Cache
	stats QueryStats
	// sp is the current parent span for instrumentation (nil when the
	// query is not sampled — every span call is nil-safe and free). It is
	// only touched by the query's orchestration goroutine.
	sp *obs.Span
	// provide, when non-nil, offers pre-computed scan results to the
	// parallelize phase (batch replays consume the batch's fused scans
	// through it). Nil for ordinary queries.
	provide scanProvider
}

// tempCat returns the catalog to register subquery temporaries in. The
// query's pinning snapshot doubles as the private overlay: local
// registrations shadow the session catalog without writing to it, so
// concurrent queries can materialize temps under the same alias.
func (qc *queryCtx) tempCat() *catalog.Catalog { return qc.cat }

// Request is one query submission: the statement plus the mode to run
// it in. Every entry point — Query, QueryContext, QueryBatches,
// QueryBatch — reduces to Requests flowing through the session's single
// internal submission path.
type Request struct {
	// SQL is the statement text.
	SQL string
	// Mode selects baseline / rewrite / share execution. The zero value
	// is ModeBaseline. QueryBatch runs its whole batch under the mode
	// passed to it and ignores per-Request modes.
	Mode Mode
}

// Query parses and runs a SQL statement in the given mode.
func (s *Session) Query(sql string, mode Mode) (*Result, error) {
	return s.QueryContext(context.Background(), sql, mode)
}

// QueryContext parses and runs a SQL statement in the given mode under a
// context: cancellation and deadlines propagate into the scan, join,
// accumulate and finisher loops, which poll cooperatively. The session's
// QueryTimeout (if any) is nested inside ctx. Internal panics anywhere on
// the query path are recovered and returned as errors — a faulty query
// never kills the process.
//
// QueryContext is safe to call from any number of goroutines. When
// Options.MaxConcurrentQueries is set, excess calls queue here until a
// slot frees or ctx is done.
func (s *Session) QueryContext(ctx context.Context, sql string, mode Mode) (*Result, error) {
	return s.submit(ctx, Request{SQL: sql, Mode: mode})
}

// admitted is the shared front door of the submission path: the
// lifecycle gate (a closed/draining session rejects new work with the
// typed sentinel; admitted work is tracked so Close can wait for it),
// admission control (bound the queries executing at once so the morsel
// scheduler isn't oversubscribed — queued callers stay cancelable, and
// resolve deterministically when the session closes mid-wait: a slot,
// their own context, or the close), and query-timeout nesting. Both
// single submissions and whole batches (one slot per batch) pass
// through it, which is also why the waited-for-a-slot accounting
// (QueriesQueued, queue time) lives here and nowhere else. The returned
// release func must be deferred by the caller; it is nil exactly when err
// is non-nil.
func (s *Session) admitted(ctx context.Context, kind string) (outCtx context.Context, queued time.Duration, release func(), err error) {
	if err := s.beginOp(kind); err != nil {
		return nil, 0, nil, err
	}
	queued, err = s.admit.Acquire(ctx, s.life, &s.admitQueue)
	if err != nil {
		s.endOp()
		return nil, 0, nil, fmt.Errorf("%s admission: %w", kind, err)
	}
	if queued > 0 {
		s.queueNanos.Add(int64(queued))
		s.queriesQueued.Add(1)
	}
	release = func() { s.admit.Release(); s.endOp() }
	s.mu.RLock()
	timeout := s.queryTimeout
	s.mu.RUnlock()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		prev := release
		release = func() { cancel(); prev() }
	}
	return ctx, queued, release, nil
}

// sealOutcome is deferred by every submission path (single queries and
// whole batches): it turns a panic into an error and files
// cancellation/deadline failures under ErrCanceled. The original context
// error stays wrapped too, so both errors.Is(err, ErrCanceled) and
// errors.Is(err, context.Canceled) hold.
func sealOutcome(what string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s panicked (recovered): %v", what, r)
	}
	if e := *err; e != nil && !errors.Is(e, errs.ErrCanceled) &&
		(errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
		*err = fmt.Errorf("%w: %w", errs.ErrCanceled, e)
	}
}

// track opens the accounting of one executing query — a single
// submission or one batch replay — and returns its closing half, which
// must be called exactly once with the query's outcome: engine counters,
// the latency histogram, and the Result's cost stats are all filled
// here and nowhere else.
func (s *Session) track(queued time.Duration) func(res *Result, err error) {
	s.queriesStarted.Add(1)
	start := time.Now()
	return func(res *Result, err error) {
		elapsed := time.Since(start)
		s.queryNanos.Add(int64(elapsed))
		s.queryHist.Observe(elapsed.Seconds())
		if err != nil {
			s.queriesFailed.Add(1)
			return
		}
		s.queriesCompleted.Add(1)
		s.rowsScanned.Add(int64(res.RowsScanned))
		res.Stats.WallTime = elapsed
		res.Stats.QueueWait = queued
		res.Stats.RowsScanned = res.RowsScanned
	}
}

// submit runs one Request end to end: admission, trace sampling, parse,
// analyze (the rule pipeline), execute, stats finalization. This is the
// single internal submission path every query entry point flows through.
func (s *Session) submit(ctx context.Context, req Request) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, queued, release, err := s.admitted(ctx, "query")
	if err != nil {
		return nil, err
	}
	defer release()
	// Trace sampling: a sampled query gets a span tree threaded through
	// the whole pipeline; an unsampled one threads nil spans, which every
	// span method treats as a free no-op.
	var tr *obs.Trace
	if s.sampler.Sample() {
		tr = obs.NewTrace("query")
		tr.Root().SetStr("mode", req.Mode.String())
	}
	done := s.track(queued)
	defer func() {
		done(res, err)
		if err == nil {
			tr.Finish()
			res.Trace = tr
		}
	}()
	defer sealOutcome("query", &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	psp := tr.Root().Child("parse")
	stmt, err := sqlparse.Parse(req.SQL)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errs.ErrParse, err)
	}
	// The snapshot pins one version of every table the query resolves,
	// so concurrent appends (which publish new versions, never mutate
	// old ones) stay invisible to in-flight scans, batch cursors and
	// row iterators.
	qc := &queryCtx{cat: s.cat.Snapshot(), cache: s.stateCache(), sp: tr.Root()}
	return s.runStmt(ctx, qc, stmt, req.Mode, 0)
}

func (s *Session) runStmt(ctx context.Context, qc *queryCtx, stmt *sqlparse.Stmt, mode Mode, depth int) (*Result, error) {
	if depth > 4 {
		return nil, fmt.Errorf("subquery nesting too deep")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A windowed statement goes straight to the pipeline, whose
	// validate-scope rule owns its surface: a single base table (nothing
	// to materialize) and at least one aggregate (never a plain scan).
	windowed := stmt.Window != nil
	if windowed {
		if depth > 0 {
			return nil, fmt.Errorf("windowed subqueries are not supported")
		}
		s.windowQueries.Add(1)
	}
	// Materialize derived tables bottom-up, into the query's private
	// catalog overlay (never the shared session catalog).
	var temps []string
	defer func() {
		for _, t := range temps {
			qc.cat.Drop(t)
		}
	}()
	for i, ref := range stmt.From {
		if ref.Sub == nil || windowed {
			continue
		}
		// The subquery gets its own span subtree: swap it in as the
		// current parent for the recursive call, restore after.
		parent := qc.sp
		qc.sp = parent.Child("subquery")
		qc.sp.SetStr("alias", ref.Alias)
		sub, err := s.runStmt(ctx, qc, ref.Sub, mode, depth+1)
		qc.sp.End()
		qc.sp = parent
		if err != nil {
			return nil, err
		}
		sub.Table.Name = ref.Alias
		if err := qc.tempCat().Register(sub.Table); err != nil {
			return nil, err
		}
		temps = append(temps, ref.Alias)
		stmt.From[i] = sqlparse.TableRef{Name: ref.Alias}
	}

	if err := s.checkAggregates(stmt); err != nil {
		return nil, err
	}

	if !windowed && !s.hasAggregates(stmt) && len(stmt.GroupBy) == 0 {
		sp := qc.sp.Child("scan/project")
		r, err := s.eng.RunSimpleIn(ctx, qc.cat, stmt)
		if err != nil {
			return nil, err
		}
		sp.SetInt("rows", int64(r.Rows))
		sp.End()
		return &Result{Table: r.Table, RowsScanned: r.Rows, Groups: r.Groups}, nil
	}

	// Everything aggregate flows through the fixed analyzer pipeline
	// (resolve → canonicalize → share → fuse → parallelize → distribute),
	// then the common execution tail.
	ps := &planState{s: s, qc: qc, stmt: stmt, mode: mode, temps: len(temps) > 0}
	if err := queryPipeline.Run(ctx, ps); err != nil {
		return nil, err
	}
	return s.executePlan(ctx, ps)
}

// noteKernels merges a group result's kernel names into the query stats
// (deduplicated — subqueries may run the same kernels again).
func (qc *queryCtx) noteKernels(gr *exec.GroupResult) {
	for _, k := range gr.Kernels {
		dup := false
		for _, have := range qc.stats.Kernels {
			if have == k {
				dup = true
				break
			}
		}
		if !dup {
			qc.stats.Kernels = append(qc.stats.Kernels, k)
		}
	}
}

// noteScanAgg annotates a scan/agg span with the run's cost facts:
// joined rows read, base rows the filters evaluated and their time,
// groups produced, morsel batch count, and the compiled kernels that
// served it. Nil-safe like every span call.
func noteScanAgg(sp *obs.Span, gr *exec.GroupResult) {
	sp.SetInt("rows", int64(gr.Rows))
	if gr.FilterRows > 0 {
		sp.SetInt("filter_rows", int64(gr.FilterRows))
		sp.SetInt("filter_us", gr.FilterTime.Microseconds())
	}
	sp.SetInt("groups", int64(gr.NumGroups))
	if gr.Rows > 0 {
		sp.SetInt("batches", int64((gr.Rows+exec.BatchSize-1)/exec.BatchSize))
	}
	sp.SetStr("kernels", strings.Join(gr.Kernels, ","))
}

// noteNumericFaults records a degradation event for tolerated numeric
// faults so they are visible without inspecting every output value.
func noteNumericFaults(res *Result) {
	if res.NumericFaults > 0 {
		res.Events = append(res.Events,
			fmt.Sprintf("numeric: %d NaN/±Inf aggregate output(s) under permissive policy", res.NumericFaults))
	}
}

// checkAggregates rejects calls with aggregate syntax (sum, prod, …)
// that are neither SQL built-ins nor registered UDAFs, up front under
// the ErrUnknownUDAF sentinel — otherwise they would fall through to
// the scalar evaluator and fail confusingly. Shared by the submission
// path, EXPLAIN, and the batch planner.
func (s *Session) checkAggregates(stmt *sqlparse.Stmt) error {
	for _, item := range stmt.Select {
		var unknown error
		expr.Walk(item.Expr, func(n expr.Node) bool {
			if c, ok := n.(*expr.Call); ok && expr.AggregateFuncs[c.Name] && !s.isAgg(c.Name) {
				unknown = fmt.Errorf("%w %q", errs.ErrUnknownUDAF, c.Name)
				return false
			}
			return true
		})
		if unknown != nil {
			return unknown
		}
	}
	return nil
}

func (s *Session) hasAggregates(stmt *sqlparse.Stmt) bool {
	found := false
	for _, item := range stmt.Select {
		expr.Walk(item.Expr, func(n expr.Node) bool {
			if c, ok := n.(*expr.Call); ok && s.isAgg(c.Name) {
				found = true
				return false
			}
			return !found
		})
	}
	return found
}

// slot is one unique bound aggregation state needed by the query.
type slot struct {
	st       canonical.State
	positive bool
	taskIdx  int // index in the task registry, -1 when cached
	cached   []float64
	finalIdx int // index into the assembled value matrix
}

// addStateTask registers a compiled state task under its key.
func addStateTask(reg *exec.TaskRegistry, st canonical.State, key string) int {
	return reg.Add(key, func(b exec.Binder) (exec.Task, error) {
		return exec.NewStateTask(st, b)
	})
}

// signCompanions returns the §5.3 companion states (Σ ln|b|, Π sgn(b))
// to compute beside a state so its future sharing stays sound over data
// not provably positive: none outside share mode, over positive data, or
// for a state that is neither a product nor a logarithmic chain.
func signCompanions(mode Mode, st canonical.State, positive bool) []canonical.State {
	if mode != ModeShare || positive {
		return nil
	}
	logChain := slices.ContainsFunc(st.F.Prims, func(p scalar.Prim) bool { return p.Kind == scalar.KLog })
	if st.Op != canonical.OpProd && !logChain {
		return nil
	}
	lnAbs, sgnProd := cache.SignSplitStates(st.Base)
	return []canonical.State{lnAbs, sgnProd}
}

// alignEntryToResult reorders entry-ordered values into the result's
// group order.
func alignEntryToResult(entry *cache.GroupTable, gr *exec.GroupResult, vals []float64) ([]float64, bool) {
	if entry == nil || entry.NumGroups() != gr.NumGroups {
		return nil, false
	}
	out := make([]float64, gr.NumGroups)
	for g, key := range gr.Keys {
		i, ok := entry.IndexOf(key)
		if !ok {
			return nil, false
		}
		out[g] = vals[i]
	}
	return out, true
}

// baselineFinisher compiles one aggregate call for the baseline system.
// SQL built-ins are native there, and so are the hardcoded-T aggregates
// (the approx quantile family, Spark's percentile_approx): compiled
// state loops plus the compiled T. UDAFs run hardcoded-interpreted.
func (s *Session) baselineFinisher(call *expr.Call, reg *exec.TaskRegistry) (exec.Finisher, error) {
	form, err := s.formFor(call.Name)
	if err != nil {
		return nil, err
	}
	if _, builtin := canonical.Builtin(call.Name); builtin || form.HardT != nil {
		return s.nativeFormFinisher(call, reg)
	}
	idx := reg.Add("naive:"+call.String(), func(b exec.Binder) (exec.Task, error) {
		return exec.NewNaiveUDAFTask(form, call, b.Bind)
	})
	return func(vals [][]float64, g int) float64 { return vals[idx][g] }, nil
}

// nativeFormFinisher compiles a call's canonical states as fast tasks
// and its terminating function as a closure (used by the baseline for
// natively implemented aggregates).
func (s *Session) nativeFormFinisher(call *expr.Call, reg *exec.TaskRegistry) (exec.Finisher, error) {
	b, err := s.bindCalls([]*expr.Call{call}, nil, nil)
	if err != nil {
		return nil, err
	}
	tfn, err := b.calls[0].form.CompileT()
	if err != nil {
		return nil, err
	}
	cols := make([]*int, len(b.calls[0].states))
	for j, si := range b.calls[0].states {
		idx := addStateTask(reg, b.states[si], "native:"+b.states[si].Key())
		cols[j] = &idx
	}
	return termFinisher(tfn, cols), nil
}

// formFor returns the canonical form for any aggregate name: SQL
// built-ins from their one table, registered UDAFs from the session.
func (s *Session) formFor(name string) (*canonical.Form, error) {
	if f, ok := canonical.Builtin(name); ok {
		return f, nil
	}
	if f, ok := s.UDAF(name); ok {
		return f, nil
	}
	return nil, fmt.Errorf("%w %q", errs.ErrUnknownUDAF, name)
}

// basePositive conservatively decides whether a bound base expression is
// strictly positive on the given tables (column min stats, products and
// even powers of positives). It resolves columns against the query's
// catalog view so subquery temporaries are considered too.
func basePositive(cat *catalog.Catalog, base expr.Node, tables []string) bool {
	switch t := base.(type) {
	case *expr.Num:
		return t.Val > 0
	case *expr.Var:
		tbl, err := cat.ResolveColumn(t.Name, tables)
		if err != nil {
			return false
		}
		// StatsFull, not Stats: an empty or all-NaN column reports the
		// (+Inf, -Inf) sentinels, where min > 0 would wrongly claim
		// positivity (and a NaN anywhere defeats it regardless of min —
		// NaN is not positive, and ln-based sharing rewrites would turn
		// it into a wrong, not-NaN result).
		min, max, hasNaN := tbl.Col(t.Name).StatsFull()
		return min > 0 && min <= max && !hasNaN
	case *expr.Bin:
		switch t.Op {
		case '*', '/', '+':
			return basePositive(cat, t.L, tables) && basePositive(cat, t.R, tables)
		case '^':
			return basePositive(cat, t.L, tables)
		}
		return false
	case *expr.Call:
		if t.Name == "exp" {
			return true
		}
		return false
	}
	return false
}
