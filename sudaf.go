// Package sudaf is a Go implementation of SUDAF — "Sharing Computations
// for User-Defined Aggregate Functions" (Zhang & Toumani, EDBT 2020).
//
// SUDAF lets users define aggregate functions declaratively, as
// mathematical expressions over sum/prod/count/min/max and scalar
// primitives, instead of hand-coding initialize/update/merge/evaluate
// routines:
//
//	eng := sudaf.Open(sudaf.Options{})
//	eng.DefineUDAF("qm", []string{"x"}, "sqrt(sum(x^2)/count())")
//	res, _ := eng.Query("SELECT region, qm(price) FROM sales GROUP BY region", sudaf.Share)
//
// Each UDAF is canonicalized into a well-formed aggregation (F, ⊕, T):
// per-tuple scalar translations, commutative/associative merges, and a
// terminating scalar function. The engine then:
//
//   - rewrites UDAFs into built-in aggregation-state loops (fast even
//     when the baseline would interpret a hardcoded UDAF per tuple);
//   - caches aggregation states per data fingerprint and reuses them
//     across *different* UDAFs whenever a scalar rewriting r with
//     s' = r∘s exists (Theorem 4.1: decided directly per cached
//     candidate, verified numerically, and r(s) computed when read);
//   - rolls up materialized state views to answer coarser-grained
//     queries (classic aggregate-view rewriting over sum/count states).
//
// The bundled engine is a columnar in-memory SQL executor with hash
// joins and partitioned parallel aggregation; Baseline mode reproduces
// the hardcoded-UDAF systems the paper compares against.
//
// # Observability
//
// Engine.Explain reports how a statement would run — canonical forms,
// the rewritten SQL, and in Share mode the cache provenance of every
// aggregation state (exact hit, Theorem 4.1 sharing with the scalar
// rewriting and conditions, sign-split reconstruction, or why it
// missed) — without executing it. Options.TraceRate samples queries
// into per-stage span trees on Result.Trace, and Engine.ServeMetrics
// exports engine/cache/ingestion counters and latency histograms over
// Prometheus text, expvar and pprof. See docs/OBSERVABILITY.md for the
// full reference.
package sudaf

import (
	"context"
	"sort"
	"time"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/core"
	"sudaf/internal/obs"
	"sudaf/internal/storage"
	"sudaf/internal/symbolic"
)

// Mode selects how aggregates execute; see the package comment.
type Mode = core.Mode

// Execution modes.
const (
	// Baseline models PostgreSQL/Spark SQL: built-ins run native, as the
	// compiled state loops and terminating function of their canonical
	// forms (so their output is bit-identical to Rewrite's), and UDAFs
	// run as hardcoded per-tuple interpreted accumulators.
	Baseline = core.ModeBaseline
	// Rewrite is SUDAF without sharing: aggregates decompose into
	// compiled aggregation-state loops (the paper's RQ1/RQ2 rewriting).
	Rewrite = core.ModeRewrite
	// Share adds the dynamic aggregation-state cache with Theorem 4.1
	// cross-UDAF sharing.
	Share = core.ModeShare
)

// Options configures an engine. Beyond parallelism and cache sizing it
// carries the failure-model knobs: QueryTimeout bounds every query, and
// Numeric selects strict vs permissive handling of NaN/±Inf aggregate
// outputs (see NumericPolicy).
type Options = core.Options

// NumericPolicy selects how NaN/±Inf aggregate outputs are handled.
type NumericPolicy = core.NumericPolicy

// Numeric policies.
const (
	// NumericPermissive (the default) emits NaN/±Inf like SQL emits NULL,
	// counts them in Result.NumericFaults and notes them in Result.Events.
	NumericPermissive = core.NumericPermissive
	// NumericStrict fails the query with an error naming the aggregate and
	// group on the first numeric domain fault.
	NumericStrict = core.NumericStrict
)

// Result is a query result; Table holds the output columns. Batches(n)
// and Rows() iterate it incrementally (see BatchCursor, RowIter).
type Result = core.Result

// Request is one query submission — the statement plus the mode to run
// it in. Every query entry point reduces to Requests flowing through
// the engine's single internal submission path; QueryBatch takes a
// slice of them.
type Request = core.Request

// BatchCursor iterates a query result in fixed-size column batches; see
// Engine.QueryBatches.
type BatchCursor = core.BatchCursor

// RowIter iterates a query result row by row; see Result.Rows.
type RowIter = core.RowIter

// CacheStats reports cache activity (exact, shared and sign-split hits).
type CacheStats = cache.Stats

// QueryStats is the per-query observability record on Result.Stats:
// wall time, admission queue wait, rows scanned, cache hit breakdown and
// the batch kernels used.
type QueryStats = core.QueryStats

// EngineStats are engine-lifetime aggregate counters (queries started /
// completed / failed / queued, total rows scanned, cumulative query time
// and admission queue wait), maintained atomically across concurrent
// queries.
type EngineStats = core.EngineStats

// IngestStats are engine-lifetime ingestion counters: append batches and
// rows ingested, cache entries delta-maintained vs invalidated, and
// materialized views delta-folded vs dropped.
type IngestStats = core.IngestStats

// Explain is the structured result of Engine.Explain: the canonical
// decomposition of a query's aggregates and, in Share mode, the sharing
// provenance of every aggregation state.
type Explain = core.Explain

// ExplainAggregate is one aggregate call's entry in an Explain: the call,
// its canonical form (or baseline execution strategy), and the state
// variables its terminating function reads.
type ExplainAggregate = core.ExplainAggregate

// ExplainState is one deduplicated aggregation state in an Explain, with
// its cache provenance in Share mode (hit kind, matched state, scalar
// rewriting, conditions, or miss reason).
type ExplainState = core.ExplainState

// BatchExplain is the structured result of Engine.BatchExplain: the
// batch sharing plan — fingerprint groups, fused-scan task unions, and
// every state's disposition — plus each query's own explanation.
type BatchExplain = core.BatchExplain

// BatchGroupExplain is one fingerprint group in a BatchExplain: the
// queries fused into one scan and the task union that scan computes.
type BatchGroupExplain = core.BatchGroupExplain

// BatchStateExplain is one member state's disposition in a
// BatchExplain: computed, fused with an identical in-flight state,
// derived via Theorem 4.1 from an in-flight state, or served by the
// pre-batch cache.
type BatchStateExplain = core.BatchStateExplain

// BatchSoloExplain marks a batch query that executes standalone
// (subqueries, non-aggregate statements), with the reason.
type BatchSoloExplain = core.BatchSoloExplain

// Trace is a sampled query's span tree, attached to Result.Trace when
// Options.TraceRate sampled the query. Render it with Tree or JSON.
type Trace = obs.Trace

// Span is one timed stage of a traced query; see Trace.
type Span = obs.Span

// MetricsRegistry aggregates engine metrics for export; pass one in
// Options.Metrics to make several engines share an endpoint
// (distinguished by Options.MetricsLabel).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsServer is a running metrics HTTP endpoint; see Engine.ServeMetrics.
type MetricsServer = obs.MetricsServer

// Storage re-exports, so applications can build and load tables without
// importing internal packages.
type (
	// Table is a named columnar table.
	Table = storage.Table
	// Column is a typed column vector.
	Column = storage.Column
	// ColumnKind is a column type.
	ColumnKind = storage.Kind
)

// Column kinds.
const (
	Float  = storage.KindFloat
	Int    = storage.KindInt
	String = storage.KindString
)

// NewTable creates a table.
func NewTable(name string, cols ...*Column) *Table { return storage.NewTable(name, cols...) }

// NewColumn creates a column.
func NewColumn(name string, kind ColumnKind) *Column { return storage.NewColumn(name, kind) }

// CSVOptions controls CSV loading fault handling.
type CSVOptions = storage.CSVOptions

// LoadCSV reads a table from a CSV file written by Table.SaveCSVFile
// (typed header "name:kind" per field). Malformed rows fail the load with
// a line-numbered error; use LoadCSVWith to skip and count them instead.
func LoadCSV(name, path string) (*Table, error) { return storage.LoadCSVFile(name, path) }

// LoadCSVWith reads a table from a CSV file with explicit fault handling:
// with SkipBadRows set, malformed rows (wrong field count, unparsable
// values) are skipped and counted instead of failing the load. Returns
// the table and the number of rows skipped.
func LoadCSVWith(name, path string, opts CSVOptions) (*Table, int, error) {
	return storage.LoadCSVFileWith(name, path, opts)
}

// Engine is a SUDAF instance: a catalog of tables, a UDAF registry, the
// state cache and the execution engine.
//
// An Engine is safe for concurrent use: any number of goroutines may
// call Query/QueryContext/QueryBatches/Materialize and the setters
// simultaneously. Queries share the striped state cache and the
// engine-wide worker pool; Options.MaxConcurrentQueries bounds how many
// execute at once (excess callers queue, honoring their context).
type Engine struct {
	s *core.Session
}

// Open creates an engine. The zero Options give full parallelism and a
// 256 MiB cache.
func Open(opts Options) *Engine {
	return &Engine{s: core.NewSession(opts)}
}

// Session exposes the underlying session for advanced callers (the
// benchmark harness uses it).
func (e *Engine) Session() *core.Session { return e.s }

// Register adds a table to the catalog.
func (e *Engine) Register(t *Table) error { return e.s.Register(t) }

// TableNames lists the registered tables, sorted.
func (e *Engine) TableNames() []string { return e.s.Catalog().Names() }

// DefineUDAF registers a user-defined aggregate from its mathematical
// expression, e.g. DefineUDAF("gm", []string{"x"}, "prod(x)^(1/count())").
// The library pre-registers qm, cm, gm, hm, apm, logsumexp, theta0/1,
// covariance, correlation, skewness, kurtosis and moment-sketch
// quantiles (approx_median, approx_first_quantile, approx_third_quantile).
func (e *Engine) DefineUDAF(name string, params []string, body string) error {
	return e.s.DefineUDAF(name, params, body)
}

// DefineSketchUDAF registers a quantile UDAF backed by a moment sketch
// of order k with a hardcoded max-entropy terminating function.
func (e *Engine) DefineSketchUDAF(name string, k int, q float64) error {
	return e.s.DefineSketchUDAF(name, k, q)
}

// ExplainUDAF returns the canonical form (F, ⊕, T) derived for a
// registered UDAF, rendered as text; ok is false for unknown names.
func (e *Engine) ExplainUDAF(name string) (string, bool) {
	f, ok := e.s.UDAF(name)
	if !ok {
		return "", false
	}
	return f.String(), true
}

// Explain reports how a statement would execute in the given mode,
// without executing it: the normalized data part and its cache
// fingerprint, each aggregate's canonical form (F, ⊕, T), the
// deduplicated aggregation states, the RQ1/RQ2 SQL rewriting, and — in
// Share mode — per-state sharing provenance probed read-only against the
// live cache: the matched cached state, the scalar rewriting r applied,
// the parameter conditions checked, or why the state misses. Render the
// result with its String method, or walk the struct.
//
// Explain never mutates the engine: no execution, no cache stores, no
// LRU touches, no stats. Subqueries are not supported.
func (e *Engine) Explain(sql string, mode Mode) (*Explain, error) {
	return e.s.ExplainQuery(sql, mode)
}

// UDAFNames lists registered UDAFs.
func (e *Engine) UDAFNames() []string { return e.s.UDAFNames() }

// Query runs a SELECT statement in the given mode. It is shorthand for
// QueryContext with context.Background(); see QueryContext for the error
// contract.
func (e *Engine) Query(sql string, mode Mode) (*Result, error) {
	return e.s.Query(sql, mode)
}

// QueryContext is the primary query entrypoint: it runs a SELECT
// statement in the given mode under a context. Cancellation and deadlines
// propagate cooperatively into scans, joins, batch aggregation and output
// construction, polled at batch granularity. The engine's QueryTimeout
// (if set) nests inside ctx.
//
// Errors wrap the package sentinels for errors.Is classification:
// ErrParse (bad SQL), ErrUnknownTable, ErrUnknownUDAF, ErrNumericFault
// (NumericStrict only) and ErrCanceled (which also wraps the originating
// context error).
func (e *Engine) QueryContext(ctx context.Context, sql string, mode Mode) (*Result, error) {
	return e.s.QueryContext(ctx, sql, mode)
}

// QueryBatches runs a SELECT statement and returns a cursor over the
// result in fixed-size column batches, so large outputs are consumed
// incrementally:
//
//	cur, err := eng.QueryBatches(ctx, sql, sudaf.Share)
//	for cur.Next() {
//	    batch := cur.Batch() // *sudaf.Table view, ≤ 1024 rows
//	}
//	err = cur.Err()
//
// It shares QueryContext's error contract (ErrParse, ErrUnknownTable,
// ErrUnknownUDAF, ErrNumericFault, ErrCanceled).
func (e *Engine) QueryBatches(ctx context.Context, sql string, mode Mode) (*BatchCursor, error) {
	return e.s.QueryBatches(ctx, sql, mode)
}

// QueryBatch runs a batch of queries as one submission, sharing work
// across them: the batch is canonicalized as a whole, aggregation
// states are unified pairwise via Theorem 4.1 sharing among the
// in-flight queries (not just against the cache), the surviving states
// are grouped by data fingerprint, and one fused scan per group
// computes each group's union — so N overlapping queries cost far fewer
// than N scans, and in Share mode the state cache warms once per batch.
//
// Results align positionally with reqs and are bit-identical to running
// the same statements sequentially in the same mode. The whole batch
// runs against one catalog snapshot (one version of the data) and
// occupies one admission slot; mode governs every query (per-Request
// modes are ignored). The first failing query aborts the batch: it's
// all results or one error, wrapped with the failing query's index and
// sharing QueryContext's sentinel contract.
func (e *Engine) QueryBatch(ctx context.Context, reqs []Request, mode Mode) ([]*Result, error) {
	return e.s.QueryBatch(ctx, reqs, mode)
}

// BatchExplain reports how QueryBatch would execute a batch without
// executing it: which queries fuse into which scan, which states the
// in-flight batch derives from each other via Theorem 4.1, and which
// the cache already serves. Like Explain, it never mutates the engine.
func (e *Engine) BatchExplain(reqs []Request, mode Mode) (*BatchExplain, error) {
	return e.s.BatchExplain(reqs, mode)
}

// WindowResult is one emission batch of a continuous windowed query;
// see Engine.Subscribe.
type WindowResult = core.WindowResult

// Subscription is a live continuous windowed query opened by
// Engine.Subscribe: read emissions from Results, stop with Close, and
// check Err after the stream closes.
type Subscription = core.Subscription

// Subscribe opens a continuous windowed query: a SELECT with an OVER
// clause (ROWS or EPOCHS, PRECEDING or TUMBLING) over one base table,
// streaming a WindowResult per emission batch as appends land:
//
//	sub, err := eng.Subscribe(ctx, "SELECT avg(price) OVER (ROWS 9 PRECEDING) FROM trades", sudaf.Share)
//	for wr := range sub.Results() {
//	    // wr.Table: one row per emitted window, same shape as the
//	    // one-shot query's output; wr.Seq is contiguous from 1.
//	}
//	err = sub.Err() // nil after a plain Close
//
// The subscription first emits the windows already present in the
// table, then one batch per Append, in append order, exactly once.
// Emitted windows are bit-identical to a one-shot query over the same
// rows. Appends never block on slow consumers — backpressure only
// delays the subscription's own stream (and extends how long old table
// versions stay pinned). Close the subscription (or the engine) to end
// the stream. See docs/WINDOWS.md for frame semantics and the drain
// contract.
func (e *Engine) Subscribe(ctx context.Context, sql string, mode Mode) (*Subscription, error) {
	return e.s.Subscribe(ctx, sql, mode)
}

// AppendResult reports what one append batch did: rows ingested, the
// table-version transition, and how cached states and materialized views
// were carried across it (delta-maintained vs invalidated).
type AppendResult = core.AppendResult

// Append ingests a batch of rows into a registered table. The delta must
// have the table's columns (same names and kinds, any order). Appends are
// snapshot-safe: queries in flight (including streaming cursors and row
// iterators) keep the table version they started on and never observe
// the new rows mid-query.
//
// Cached aggregation states and materialized views over the table are
// delta-maintained — the batch's per-group states are computed on the
// new rows only and ⊕-merged into the cached values — instead of being
// invalidated; anything unmaintainable is dropped with a note in
// AppendResult.Events.
func (e *Engine) Append(ctx context.Context, table string, delta *Table) (*AppendResult, error) {
	return e.s.Append(ctx, table, delta)
}

// AppendCSV ingests a CSV batch (typed header "name:kind" per field, the
// format written by Table.SaveCSVFile) into a registered table; see
// Append for the maintenance and snapshot semantics. Malformed rows are
// skipped — the same skip-bad-rows policy LoadCSVWith offers at initial
// load — and reported via AppendResult.Events instead of failing the
// whole delta; use AppendCSVWith for strict all-or-nothing ingestion.
func (e *Engine) AppendCSV(ctx context.Context, table, path string) (*AppendResult, error) {
	return e.s.AppendCSV(ctx, table, path)
}

// AppendCSVWith ingests a CSV batch with explicit malformed-row
// handling: with SkipBadRows set, bad rows are skipped and surfaced as
// an AppendResult.Events note; without it, the first bad row fails the
// whole delta and nothing is ingested.
func (e *Engine) AppendCSVWith(ctx context.Context, table, path string, opts CSVOptions) (*AppendResult, error) {
	return e.s.AppendCSVWith(ctx, table, path, opts)
}

// Close gracefully drains the engine: new queries, appends and
// materializations fail with ErrEngineClosed, callers queued for an
// admission slot resolve deterministically (slot, ErrCanceled or
// ErrEngineClosed), and Close waits until all in-flight work finishes
// or ctx expires (returning the wrapped context error; stragglers still
// honor their own contexts). Close is idempotent, never interrupts
// admitted work, and leaves the state cache intact.
func (e *Engine) Close(ctx context.Context) error { return e.s.Close(ctx) }

// Closed reports whether Engine.Close has begun.
func (e *Engine) Closed() bool { return e.s.Closed() }

// SetQueryTimeout changes the per-query timeout at runtime (0 disables).
func (e *Engine) SetQueryTimeout(d time.Duration) { e.s.SetQueryTimeout(d) }

// SetNumericPolicy switches strict/permissive numeric fault handling at
// runtime.
func (e *Engine) SetNumericPolicy(p NumericPolicy) { e.s.SetNumericPolicy(p) }

// Save persists every registered table (as encoded segment files) and
// the state cache to Options.DataDir, so a future Open against the same
// directory restores the catalog and answers Share-mode queries from
// warm cached states without rescanning base rows. Errors when DataDir
// was not configured.
func (e *Engine) Save() error { return e.s.Save() }

// LoadError returns the joined errors from restoring Options.DataDir at
// Open, or nil. Restoration is best-effort: corrupt files are skipped
// and reported here while everything readable is loaded.
func (e *Engine) LoadError() error { return e.s.LoadError() }

// RewriteSQL renders the SUDAF rewriting of a query as SQL text — the
// partial-aggregate derived-table form (RQ1/RQ2 in the paper) that SUDAF
// would send to an underlying system.
func (e *Engine) RewriteSQL(sql string) (string, error) { return e.s.RewriteSQL(sql) }

// Materialize creates a materialized state view usable for roll-up
// rewriting (and seeds the state cache).
func (e *Engine) Materialize(name, sql string) error { return e.s.Materialize(name, sql) }

// ViewNames lists the materialized state views, sorted.
func (e *Engine) ViewNames() []string {
	names := e.s.Views()
	sort.Strings(names)
	return names
}

// DropView removes a materialized view.
func (e *Engine) DropView(name string) { e.s.DropView(name) }

// CacheStats returns cache counters.
func (e *Engine) CacheStats() CacheStats { return e.s.CacheStats() }

// ResetCacheStats zeroes cache counters.
func (e *Engine) ResetCacheStats() { e.s.ResetCacheStats() }

// ClearCache drops all cached aggregation states.
func (e *Engine) ClearCache() { e.s.ClearCache() }

// Stats returns engine-lifetime aggregate counters.
func (e *Engine) Stats() EngineStats { return e.s.Stats() }

// IngestStats returns engine-lifetime ingestion counters.
func (e *Engine) IngestStats() IngestStats { return e.s.IngestStats() }

// Metrics returns the engine's metrics registry: the one passed in
// Options.Metrics, or the private registry created when none was.
func (e *Engine) Metrics() *MetricsRegistry { return e.s.Metrics() }

// ServeMetrics starts an HTTP endpoint on addr (e.g. ":9090", or
// "127.0.0.1:0" to pick a free port — the bound address is in the
// returned server's Addr) serving /metrics in Prometheus text format,
// /debug/vars (expvar) and /debug/pprof. Close the returned server to
// stop it.
func (e *Engine) ServeMetrics(addr string) (*MetricsServer, error) {
	return e.s.ServeMetrics(addr)
}

// SymbolicSpaceDump renders the symbolic sharing space saggs_2 (states,
// edges, equivalence classes — Figures 4/5 of the paper), building it on
// the first call.
func (e *Engine) SymbolicSpaceDump() string { return e.s.Space().Dump() }

// Internal type re-exports for tooling.
type (
	// Form is a UDAF's canonical form.
	Form = canonical.Form
	// SymbolicSpace is the precomputed sharing space.
	SymbolicSpace = symbolic.Space
)
