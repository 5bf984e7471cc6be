// Package core implements the SUDAF framework itself — the paper's
// primary contribution. A Session owns the catalog, the execution engine,
// the UDAF registry (declarative mathematical expressions canonicalized
// into aggregation states), the precomputed symbolic sharing space, the
// dynamic state cache, and the materialized state views used for
// aggregate-view rewriting.
//
// Queries run in one of three modes mirroring the paper's experimental
// systems:
//
//	ModeBaseline — "PostgreSQL / Spark SQL": built-in aggregates run
//	  native fast paths; UDAFs run as hardcoded, per-tuple interpreted
//	  accumulators (the PL/pgSQL / UserDefinedAggregateFunction model).
//	ModeRewrite  — "SUDAF (no share)": every aggregate is decomposed
//	  into aggregation states computed by compiled built-in loops, with
//	  the terminating function applied per group (queries RQ1/RQ2).
//	ModeShare    — "SUDAF (share)": ModeRewrite plus the dynamic cache:
//	  states are served from cache exactly, through Theorem 4.1
//	  rewritings, or via §5.3 sign-split reconstruction; only missing
//	  states touch base data.
//
// # Concurrency
//
// A Session is safe for any number of goroutines calling Query,
// QueryContext, QueryBatches, Materialize and the setter methods
// concurrently. Each query call builds a shared-nothing per-call context
// (parse tree, canonicalization, rewrite plan, result assembly, and a
// catalog overlay for materialized subquery temporaries); the shared
// structures are an RWMutex-guarded registry (UDAFs, views, policies), a
// striped state cache swapped atomically by ClearCache, and atomic
// engine counters. The lock hierarchy is flat: Session.mu is never held
// across engine execution or cache shard locks, and cache shard locks
// never nest. Options.MaxConcurrentQueries adds admission control so a
// burst of clients queues (context-aware) instead of oversubscribing the
// morsel scheduler.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/gate"
	"sudaf/internal/obs"
	"sudaf/internal/rewrite"
	"sudaf/internal/sketch"
	"sudaf/internal/storage"
	"sudaf/internal/symbolic"
)

// Mode selects how aggregate functions execute.
type Mode int

const (
	// ModeBaseline models PostgreSQL/Spark SQL with hardcoded UDAFs.
	ModeBaseline Mode = iota
	// ModeRewrite is SUDAF without sharing.
	ModeRewrite
	// ModeShare is SUDAF with the dynamic state cache.
	ModeShare
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeRewrite:
		return "sudaf-noshare"
	case ModeShare:
		return "sudaf-share"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// NumericPolicy selects how NaN/±Inf aggregate outputs are handled; see
// exec.NumericPolicy.
type NumericPolicy = exec.NumericPolicy

// Numeric policies.
const (
	// NumericPermissive emits NaN/±Inf (the SQL-NULL analogue) and counts
	// the fault in Result.NumericFaults. The default.
	NumericPermissive = exec.NumericPermissive
	// NumericStrict fails the query on a numeric domain fault.
	NumericStrict = exec.NumericStrict
)

// Options configures a session.
type Options struct {
	// Workers is the engine parallelism: 1 = "PostgreSQL mode" (serial),
	// 0 = all CPUs = "Spark mode". The worker pool is shared by every
	// concurrent query, so N simultaneous queries never run more than
	// Workers aggregation goroutines in total.
	Workers int
	// CacheBytes bounds the state cache (≤0: 256 MiB).
	CacheBytes int64
	// QueryTimeout bounds every query's execution (0 = no timeout); it
	// also applies under QueryContext, nested inside the caller's context.
	QueryTimeout time.Duration
	// Numeric is the numeric fault policy (default NumericPermissive).
	Numeric NumericPolicy
	// MaxConcurrentQueries caps the queries executing at once (0 = no
	// cap). Excess callers queue inside QueryContext and honor their
	// context's cancellation/deadline while waiting.
	MaxConcurrentQueries int
	// TraceRate is the fraction of queries that record a span tree on
	// Result.Trace: 1 traces every query, 0 (the default) none, 0.01
	// every 100th. Sampling is deterministic (a modulus over an atomic
	// counter), and an untraced query threads nil spans through the
	// pipeline at zero allocation cost.
	TraceRate float64
	// Metrics, when non-nil, is the registry this session exports its
	// counters and latency histogram into. Several sessions may share one
	// registry as long as their MetricsLabel differs. Nil gives the
	// session a private registry (still reachable via Session.Metrics).
	Metrics *obs.Registry
	// MetricsLabel distinguishes this session's series when Metrics is
	// shared, rendered as an engine="..." label. Empty means no label.
	MetricsLabel string
	// Shards > 1 partitions every registered table into that many
	// contiguous row-range shards and executes SUDAF-mode aggregations
	// scatter-gather: each shard computes its partial canonical states
	// (against its own private state cache, so Theorem 4.1 sharing works
	// per shard), the coordinator ⊕-merges the partials, and the
	// terminating functions run once over the merged groups. Results are
	// bit-identical to an unsharded session. 0 or 1 disables sharding.
	Shards int
	// DataDir, when non-empty, is the persistence directory: NewSession
	// restores every table segment file and the state-cache snapshot
	// found there (see Session.LoadError for restore problems), and
	// Session.Save writes the current tables and cache back. Restored
	// tables keep their epochs, so warm cache entries keep matching
	// post-restart fingerprints. See persist.go.
	DataDir string
}

// EngineStats are session-lifetime aggregate counters, maintained with
// atomics so they are cheap to bump from concurrent queries.
type EngineStats struct {
	// QueriesStarted counts queries admitted to execution.
	QueriesStarted int64
	// QueriesCompleted counts queries that returned a result.
	QueriesCompleted int64
	// QueriesFailed counts queries that returned an error (including
	// cancellation).
	QueriesFailed int64
	// RowsScanned totals joined base rows read across all queries.
	RowsScanned int64
	// QueryTime totals wall time across all completed and failed queries
	// (admission queue wait excluded).
	QueryTime time.Duration
	// QueueWait totals time queries spent waiting for an admission slot.
	QueueWait time.Duration
	// QueriesQueued counts queries that had to wait for an admission slot
	// (a nonzero QueueWait) rather than being admitted immediately.
	QueriesQueued int64
}

// IngestStats are session-lifetime ingestion counters: what Append did
// across all batches. Maintained with atomics; also exported through the
// metrics registry as the sudaf_ingest_* families.
type IngestStats struct {
	// Appends counts successful Append/AppendCSV batches (no-op empty
	// batches included).
	Appends int64
	// RowsAppended totals ingested rows.
	RowsAppended int64
	// EntriesMigrated counts cache entries delta-maintained across an
	// append; StatesMaintained totals their per-entry states.
	EntriesMigrated  int64
	StatesMaintained int64
	// EntriesInvalidated counts cache entries dropped because they could
	// not be delta-maintained.
	EntriesInvalidated int64
	// ViewsMaintained / ViewsInvalidated count materialized views
	// delta-folded vs dropped across appends.
	ViewsMaintained  int64
	ViewsInvalidated int64
}

// Session is a SUDAF instance bound to a catalog of tables. It is safe
// for concurrent use; see the package comment for the concurrency model.
type Session struct {
	// mu guards the registry maps (udafs, builtinForms, views) and the
	// mutable policies (queryTimeout, numeric). It is never held across
	// query execution.
	mu           sync.RWMutex
	cat          *catalog.Catalog
	eng          *exec.Engine
	space        *symbolic.Space
	udafs        map[string]*canonical.Form
	builtinForms map[string]*canonical.Form
	views        map[string]*rewrite.View
	viewMaints   map[string]*viewMaint

	// ingestMu serializes appends (and view materialization, which seeds
	// maintenance state). Queries never take it: they pin a catalog
	// snapshot instead, so ingestion and querying overlap freely.
	ingestMu sync.Mutex

	// cache is swapped atomically by ClearCache; each query snapshots it
	// once, so an in-flight query keeps one coherent cache for its whole
	// lifetime even across a concurrent clear.
	cache      atomic.Pointer[cache.Cache]
	cacheBytes int64

	// shards is the scatter-gather runtime (nil when Options.Shards ≤ 1):
	// per-table shard sets plus the in-process workers, each with its own
	// state cache. Shard sets are rebuilt under ingestMu (Register,
	// Append) and read via an immutable-snapshot pointer by queries.
	shards *shardRuntime

	// admit is the admission-control slot pool (nil = unlimited); any
	// number of callers may wait in admitQueue.
	admit      gate.Slots
	admitQueue gate.Queue

	// life tracks the closed/draining state and in-flight operations;
	// see close.go for the drain contract.
	life *gate.Gate

	queryTimeout time.Duration
	numeric      NumericPolicy

	// sampler decides which queries record a trace (nil when TraceRate
	// is 0 — the nil sampler never samples and costs one predicted
	// branch on the hot path).
	sampler *obs.Sampler
	// metrics is the export registry (never nil after NewSession);
	// queryHist is the query latency histogram registered in it.
	metrics   *obs.Registry
	queryHist *obs.Histogram

	// Engine-level counters (see EngineStats).
	queriesStarted   atomic.Int64
	queriesCompleted atomic.Int64
	queriesFailed    atomic.Int64
	queriesQueued    atomic.Int64
	rowsScanned      atomic.Int64
	queryNanos       atomic.Int64
	queueNanos       atomic.Int64

	// Ingestion counters (see IngestStats).
	appends            atomic.Int64
	rowsAppended       atomic.Int64
	entriesMigrated    atomic.Int64
	statesMaintained   atomic.Int64
	entriesInvalidated atomic.Int64
	viewsMaintained    atomic.Int64
	viewsInvalidated   atomic.Int64

	// Continuous windowed subscriptions (see subscribe.go). subMu guards
	// the registry; notifySubs runs under ingestMu, so queued notes
	// arrive in append order (the FIFO half of the delivery contract).
	subMu  sync.Mutex
	subs   map[int64]*Subscription
	subSeq int64

	// Windowed-query counters (the sudaf_window_* metric family).
	windowQueries       atomic.Int64
	windowEmits         atomic.Int64
	windowRowsEvicted   atomic.Int64
	windowFastFolds     atomic.Int64
	windowRefolds       atomic.Int64
	windowSubscriptions atomic.Int64

	// Persistence (see persist.go): dataDir is Options.DataDir, loadErr
	// (guarded by mu) joins the restore errors from construction, and the
	// counters feed the sudaf_storage_* metrics.
	dataDir              string
	loadErr              error
	persistSaves         atomic.Int64
	persistTablesLoaded  atomic.Int64
	persistEntriesLoaded atomic.Int64
}

// NewSession creates a session with the built-in UDAF library registered.
func NewSession(opts Options) *Session {
	if opts.Workers == 0 {
		opts.Workers = runtime.NumCPU()
	}
	cat := catalog.New()
	space := symbolic.NewSpace(2) // saggs_2, the paper's Figures 4/5
	s := &Session{
		cat:          cat,
		eng:          exec.NewEngine(cat, opts.Workers),
		space:        space,
		cacheBytes:   opts.CacheBytes,
		udafs:        map[string]*canonical.Form{},
		views:        map[string]*rewrite.View{},
		viewMaints:   map[string]*viewMaint{},
		queryTimeout: opts.QueryTimeout,
		numeric:      opts.Numeric,
		sampler:      obs.NewSampler(opts.TraceRate),
		metrics:      opts.Metrics,
		life:         gate.New(),
		admitQueue:   gate.Queue{Max: -1},
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.cache.Store(cache.New(opts.CacheBytes, space))
	if opts.Shards > 1 {
		s.shards = newShardRuntime(s, opts.Shards, opts.CacheBytes)
	}
	if opts.MaxConcurrentQueries > 0 {
		s.admit = make(gate.Slots, opts.MaxConcurrentQueries)
	}
	s.registerMetrics(opts.MetricsLabel)
	s.registerBuiltinLibrary()
	if opts.DataDir != "" {
		s.dataDir = opts.DataDir
		if err := s.loadDataDir(); err != nil {
			s.mu.Lock()
			s.loadErr = err
			s.mu.Unlock()
		}
	}
	return s
}

// Catalog exposes the session's catalog.
func (s *Session) Catalog() *catalog.Catalog { return s.cat }

// stateCache returns the current cache snapshot.
func (s *Session) stateCache() *cache.Cache { return s.cache.Load() }

// CacheStats returns cache counters.
func (s *Session) CacheStats() cache.Stats { return s.stateCache().Stats() }

// ResetCacheStats zeroes cache counters.
func (s *Session) ResetCacheStats() { s.stateCache().ResetStats() }

// ClearCache drops all cached states (fresh-cache experiments) by
// installing a new cache with the session's configured budget. Queries
// already in flight finish against the old cache — they snapshotted the
// pointer at admission — and their late inserts land in the discarded
// cache, which is then garbage.
func (s *Session) ClearCache() {
	s.cache.Store(cache.New(s.cacheBytes, s.space))
}

// Space exposes the precomputed symbolic space.
func (s *Session) Space() *symbolic.Space { return s.space }

// Cache exposes the session's state cache (testing and chaos harnesses).
func (s *Session) Cache() *cache.Cache { return s.stateCache() }

// Stats returns the session-lifetime engine counters.
func (s *Session) Stats() EngineStats {
	return EngineStats{
		QueriesStarted:   s.queriesStarted.Load(),
		QueriesCompleted: s.queriesCompleted.Load(),
		QueriesFailed:    s.queriesFailed.Load(),
		RowsScanned:      s.rowsScanned.Load(),
		QueryTime:        time.Duration(s.queryNanos.Load()),
		QueueWait:        time.Duration(s.queueNanos.Load()),
		QueriesQueued:    s.queriesQueued.Load(),
	}
}

// IngestStats returns the session-lifetime ingestion counters.
func (s *Session) IngestStats() IngestStats {
	return IngestStats{
		Appends:            s.appends.Load(),
		RowsAppended:       s.rowsAppended.Load(),
		EntriesMigrated:    s.entriesMigrated.Load(),
		StatesMaintained:   s.statesMaintained.Load(),
		EntriesInvalidated: s.entriesInvalidated.Load(),
		ViewsMaintained:    s.viewsMaintained.Load(),
		ViewsInvalidated:   s.viewsInvalidated.Load(),
	}
}

// Metrics returns the session's metrics registry (the one passed in
// Options.Metrics, or the private registry created in its absence).
func (s *Session) Metrics() *obs.Registry { return s.metrics }

// SetNumericPolicy switches strict/permissive numeric fault handling at
// runtime (e.g. from the shell).
func (s *Session) SetNumericPolicy(p NumericPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.numeric = p
}

// NumericPolicySetting returns the session's numeric fault policy.
func (s *Session) NumericPolicySetting() NumericPolicy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.numeric
}

// SetQueryTimeout changes the per-query timeout (0 disables it).
func (s *Session) SetQueryTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queryTimeout = d
}

// Register adds a table to the catalog. On a sharded session it also
// (re)builds the table's shard set: contiguous row-range slice versions,
// one per shard, each sealed and epoch-stamped once so per-shard cache
// fingerprints stay stable across queries.
func (s *Session) Register(t *storage.Table) error {
	if s.shards == nil {
		return s.cat.Register(t)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.cat.Register(t); err != nil {
		return err
	}
	s.shards.rebuild(t)
	return nil
}

// DefineUDAF registers a UDAF from its mathematical expression, e.g.
//
//	DefineUDAF("qm", []string{"x"}, "sqrt(sum(x^2)/count())")
//
// The expression is canonicalized immediately; errors surface here, not
// at query time.
func (s *Session) DefineUDAF(name string, params []string, body string) error {
	name = strings.ToLower(name)
	if _, builtin := exec.LookupBuiltin(name); builtin {
		return fmt.Errorf("%q is a built-in aggregate", name)
	}
	node, err := expr.Parse(body)
	if err != nil {
		return fmt.Errorf("UDAF %s: %w", name, err)
	}
	form, err := canonical.Decompose(name, params, node)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.udafs[name] = form
	return nil
}

// DefineSketchUDAF registers a UDAF whose terminating function is
// hardcoded Go over moment-sketch states (§4.1 scenario 2): quantile q
// approximated from MS(k).
func (s *Session) DefineSketchUDAF(name string, k int, q float64) error {
	form, err := sketch.QuantileForm(name, k, q)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.udafs[strings.ToLower(name)] = form
	return nil
}

// UDAF returns a registered UDAF's canonical form.
func (s *Session) UDAF(name string) (*canonical.Form, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.udafs[strings.ToLower(name)]
	return f, ok
}

// UDAFNames lists registered UDAFs.
func (s *Session) UDAFNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.udafs))
	for n := range s.udafs {
		out = append(out, n)
	}
	return out
}

// isAgg reports whether a call name denotes an aggregate in this session.
func (s *Session) isAgg(name string) bool {
	if _, ok := exec.LookupBuiltin(name); ok {
		return true
	}
	s.mu.RLock()
	_, ok := s.udafs[name]
	s.mu.RUnlock()
	return ok
}

// registerBuiltinLibrary installs the paper's aggregations (Table 1 and
// the experiment workloads) as declarative UDAFs.
func (s *Session) registerBuiltinLibrary() {
	lib := []struct {
		name   string
		params []string
		body   string
	}{
		{"qm", []string{"x"}, "sqrt(sum(x^2)/count())"},    // quadratic mean
		{"cm", []string{"x"}, "(sum(x^3)/count())^(1/3)"},  // cubic mean
		{"gm", []string{"x"}, "prod(x)^(1/count())"},       // geometric mean
		{"hm", []string{"x"}, "count()/sum(x^(-1))"},       // harmonic mean
		{"apm", []string{"x"}, "(sum(x^4)/count())^(1/4)"}, // power mean p=4
		{"logsumexp", []string{"x"}, "ln(sum(exp(x)))"},    // LogSumExp
		{"theta1", []string{"x", "y"}, "(count()*sum(x*y)-sum(y)*sum(x))/(count()*sum(x^2)-sum(x)^2)"},
		{"theta0", []string{"x", "y"}, "sum(y)/count() - ((count()*sum(x*y)-sum(y)*sum(x))/(count()*sum(x^2)-sum(x)^2))*(sum(x)/count())"},
		{"covariance", []string{"x", "y"}, "sum(x*y)/n - sum(x)*sum(y)/n^2"},
		{"correlation", []string{"x", "y"},
			"(n*sum(x*y)-sum(x)*sum(y))/(sqrt(n*sum(x^2)-sum(x)^2)*sqrt(n*sum(y^2)-sum(y)^2))"},
		{"skewness", []string{"x"},
			"(sum(x^3)/n - 3*(sum(x)/n)*(sum(x^2)/n) + 2*(sum(x)/n)^3)/(sum(x^2)/n - (sum(x)/n)^2)^1.5"},
		{"kurtosis", []string{"x"},
			"(sum(x^4)/n - 4*(sum(x)/n)*(sum(x^3)/n) + 6*(sum(x)/n)^2*(sum(x^2)/n) - 3*(sum(x)/n)^4)/(sum(x^2)/n - (sum(x)/n)^2)^2"},
	}
	for _, d := range lib {
		if err := s.DefineUDAF(d.name, d.params, d.body); err != nil {
			panic(fmt.Sprintf("builtin library: %v", err))
		}
	}
	for _, d := range []struct {
		name string
		q    float64
	}{
		{"approx_median", 0.5},
		{"approx_first_quantile", 0.25},
		{"approx_third_quantile", 0.75},
	} {
		if err := s.DefineSketchUDAF(d.name, sketch.DefaultK, d.q); err != nil {
			panic(fmt.Sprintf("sketch library: %v", err))
		}
	}
	// moment_sketch(x) computes and caches the MS(k=10) states with a
	// trivial terminating function — the AS2 prefetch operator.
	s.udafs["moment_sketch"] = sketch.PrefetchForm("moment_sketch", sketch.DefaultK)
}
