package core

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sudaf/internal/obs"
	"sudaf/internal/storage"
)

// TestResultTraceSampling pins the Options.TraceRate contract: rate 1
// attaches a span tree to every Result, rate 0 (the default) attaches
// none.
func TestResultTraceSampling(t *testing.T) {
	traced := NewSession(Options{Workers: 1, TraceRate: 1})
	plain := NewSession(Options{Workers: 1})
	for _, s := range []*Session{traced, plain} {
		tbl := storage.NewTable("sales",
			storage.NewColumn("region", storage.KindInt),
			storage.NewColumn("price", storage.KindFloat))
		for i := 0; i < 64; i++ {
			tbl.Col("region").AppendInt(int64(i % 4))
			tbl.Col("price").AppendFloat(float64(1 + i))
		}
		if err := s.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}

	res, err := plain.Query(explainQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("TraceRate 0 must not attach a trace")
	}

	res, err = traced.Query(explainQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("TraceRate 1 must attach a trace")
	}
	for _, name := range []string{"parse", "plan", "canonicalize", "sharing-lookup", "scan/agg", "cache-store", "finisher"} {
		if res.Trace.Find(name) == nil {
			t.Errorf("trace missing %q span:\n%s", name, res.Trace.Tree())
		}
	}
	if sp := res.Trace.Find("scan/agg"); sp != nil {
		var rows int64 = -1
		for _, a := range sp.Attrs {
			if a.Key == "rows" {
				rows = a.Int
			}
		}
		if rows != 64 {
			t.Errorf("scan/agg rows attr = %d, want 64", rows)
		}
	}
	// A WHERE filter adds the base rows it evaluated and its time beside
	// the rows it kept; the unfiltered scan above carries neither.
	filtered, err := traced.Query("SELECT region, sum(price) FROM sales WHERE region >= 1 and region < 3 GROUP BY region", ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res              *Result
		rows, filterRows int64
		filtered         bool
	}{{res, 64, 0, false}, {filtered, 32, 64, true}} {
		attrs := map[string]int64{}
		if sp := c.res.Trace.Find("scan/agg"); sp != nil {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Int
			}
		}
		if _, us := attrs["filter_us"]; attrs["rows"] != c.rows || attrs["filter_rows"] != c.filterRows || us != c.filtered {
			t.Errorf("scan/agg attrs %v, want rows=%d filter_rows=%d, filter_us present %v", attrs, c.rows, c.filterRows, c.filtered)
		}
	}
	if !strings.Contains(res.Trace.Tree(), "└─") {
		t.Errorf("Tree() should render a span tree:\n%s", res.Trace.Tree())
	}
	if js, err := res.Trace.JSON(); err != nil || !strings.Contains(js, `"name"`) {
		t.Errorf("JSON() = %q, %v", js, err)
	}

	// Second query on the traced session: an exact-hit run still traces,
	// with the sharing-lookup span but no scan.
	cold := res
	res, err = traced.Query(explainQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Find("sharing-lookup") == nil {
		t.Fatal("cache-hit query should still carry a sharing-lookup span")
	}
	// The lookup checksums only the columns it serves: none on the cold
	// run, each bound state's once on the exact-hit repeat.
	spanInt := func(tr *obs.Trace, span, key string) int64 {
		if sp := tr.Find(span); sp != nil {
			for _, a := range sp.Attrs {
				if a.Key == key {
					return a.Int
				}
			}
		}
		t.Fatalf("no %s attribute %q:\n%s", span, key, tr.Tree())
		return 0
	}
	states := spanInt(res.Trace, "canonicalize", "states")
	if cold, warm := spanInt(cold.Trace, "sharing-lookup", "verified"), spanInt(res.Trace, "sharing-lookup", "verified"); cold != 0 || warm != states || states == 0 {
		t.Errorf("sharing-lookup verified=%d cold, %d warm; want 0 and %d", cold, warm, states)
	}
}

// TestSharingLookupSpanCountsOwnLookup: a statement with a FROM-subquery
// runs both levels on one query context, and the outer sharing-lookup
// span used to report the context's running totals — its own lookups plus
// the subquery's. Each span must account for exactly the states its own
// statement bound; Result.Stats keeps the statement-wide totals. The
// outer statement reads a subquery temporary, so it looks nothing up.
func TestSharingLookupSpanCountsOwnLookup(t *testing.T) {
	s := NewSession(Options{Workers: 1, TraceRate: 1})
	tbl := storage.NewTable("sales",
		storage.NewColumn("region", storage.KindInt),
		storage.NewColumn("price", storage.KindFloat))
	for i := 0; i < 64; i++ {
		tbl.Col("region").AppendInt(int64(i % 4))
		tbl.Col("price").AppendFloat(float64(1 + i))
	}
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT max(tp), count(*) FROM
		(SELECT region, sum(price) tp, avg(price) ap FROM sales GROUP BY region) t`, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	attr := func(sp *obs.Span, key string) int64 {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Int
			}
		}
		t.Fatalf("span %s has no %q attribute:\n%s", sp.Name, key, res.Trace.Tree())
		return 0
	}
	// lookups checks one statement level (the spans directly under parent)
	// and returns how many states it looked up.
	lookups := func(level string, parent *obs.Span, cached bool) int64 {
		var bound, looked int64 = -1, -1
		for _, sp := range parent.Children {
			switch sp.Name {
			case "canonicalize":
				bound = attr(sp, "states")
			case "sharing-lookup":
				looked = attr(sp, "exact") + attr(sp, "shared") + attr(sp, "sign") + attr(sp, "miss")
			}
		}
		if !cached {
			if looked != -1 {
				t.Errorf("%s statement reads a temporary but has a sharing-lookup span:\n%s", level, res.Trace.Tree())
			}
			return 0
		}
		if bound <= 0 || looked != bound {
			t.Errorf("%s statement: sharing-lookup span counts %d lookups for %d bound states:\n%s",
				level, looked, bound, res.Trace.Tree())
		}
		return looked
	}
	root := res.Trace.Root()
	sub := res.Trace.Find("subquery")
	if sub == nil {
		t.Fatalf("no subquery span:\n%s", res.Trace.Tree())
	}
	total := lookups("outer", root, false) + lookups("inner", sub, true)
	st := res.Stats
	if got := int64(st.CacheExactHits + st.CacheSharedHits + st.CacheSignHits + st.CacheMisses); got != total {
		t.Errorf("Result.Stats totals %d lookups, spans %d", got, total)
	}
}

// TestEventsDrainOrdering pins the documented drain contract for
// degradation events queued on the cache (by Append invalidations or
// other out-of-band sources): they surface on the NEXT share-mode
// query's Result.Events, in FIFO order, exactly once, after the query's
// own events and before the numeric-fault note. Baseline and rewrite
// queries never drain them (those modes do not consult the cache).
func TestEventsDrainOrdering(t *testing.T) {
	s := newTestSession(t, 200, 1)
	s.Cache().AddEvent("ingest: first note")
	s.Cache().AddEvent("ingest: second note")

	// Baseline and rewrite leave the queue untouched.
	for _, mode := range []Mode{ModeBaseline, ModeRewrite} {
		res, err := s.Query(q1, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if strings.Contains(ev, "note") {
				t.Fatalf("%v query drained cache events: %v", mode, res.Events)
			}
		}
	}

	// The next share query drains both, FIFO, before any numeric note.
	res, err := s.Query("SELECT ss_store_sk, gm(ss_sales_price - 12.5) FROM store_sales GROUP BY ss_store_sk", ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	first, second, numeric := -1, -1, -1
	for i, ev := range res.Events {
		switch {
		case strings.Contains(ev, "first note"):
			first = i
		case strings.Contains(ev, "second note"):
			second = i
		case strings.HasPrefix(ev, "numeric:"):
			numeric = i
		}
	}
	if first == -1 || second == -1 || first > second {
		t.Fatalf("events %v: want first note then second note (FIFO)", res.Events)
	}
	if numeric == -1 {
		t.Fatalf("events %v: gm over negative bases should note numeric faults", res.Events)
	}
	if numeric < second {
		t.Fatalf("events %v: numeric note must come after drained ingest events", res.Events)
	}

	// Drained exactly once: a second share query sees a clean slate.
	res, err = s.Query(q1, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if strings.Contains(ev, "note") {
			t.Fatalf("event drained twice: %v", res.Events)
		}
	}
}

// TestAppendEventsReachNextShareQuery pins the end-to-end path the docs
// describe: an Append that invalidates cache entries queues the
// invalidation notes, and the next share-mode query's Result.Events
// carries them in append order.
func TestAppendEventsReachNextShareQuery(t *testing.T) {
	s := newTestSession(t, 300, 1)
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	// Force invalidation rather than migration by stripping maintenance
	// records from every cached entry.
	c := s.stateCache()
	for _, snap := range c.Snapshot() {
		if gt, ok := cacheEntry(c, snap.Fingerprint); ok {
			gt.Maint = nil
		}
	}
	res, err := s.Append(context.Background(), "store_sales", salesDelta(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.EntriesInvalidated == 0 {
		t.Fatalf("append invalidated nothing: %+v", res)
	}
	qres, err := s.Query(q1, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	got := -1
	for i, ev := range qres.Events {
		if strings.Contains(ev, "invalidated") {
			got = i
			break
		}
	}
	if got == -1 {
		t.Fatalf("query events %v: want the append invalidation note", qres.Events)
	}
	if qres.Events[got] != res.Events[0] {
		t.Fatalf("drained note %q != queued note %q", qres.Events[got], res.Events[0])
	}
}

// TestTraceOffOverheadGuard is the ≤2% regression guard from the issue:
// with tracing off, the per-query instrumentation must cost ≤2% of a
// kernel-dominated query. Comparative wall-clock runs of the same query
// are too noisy for a 2% threshold on shared hardware (observed ±7%
// between identical binaries), so the guard prices the disabled
// instrumentation directly: it replays the exact off-path sequence a
// query threads — one sampler check, every nil-span call, one histogram
// observation — in a tight loop, and compares that against the measured
// kernel query time. The off path is nanoseconds per query; if anyone
// makes it allocate or do real work, this fails loudly.
func TestTraceOffOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	const rows = 1_000_000
	s := NewSession(Options{Workers: 1, TraceRate: 0})
	tbl := storage.NewTable("big",
		storage.NewColumn("g", storage.KindInt),
		storage.NewColumn("v", storage.KindFloat))
	gc, vc := tbl.Col("g"), tbl.Col("v")
	for i := 0; i < rows; i++ {
		gc.AppendInt(int64(i & 7))
		vc.AppendFloat(float64(1 + i%97))
	}
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT g, gm(v), avg(v), sum(v*v) FROM big GROUP BY g"
	run := func() time.Duration {
		start := time.Now()
		// Rewrite mode recomputes every time: no cache interference.
		if _, err := s.Query(q, ModeRewrite); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run() // warm
	queryTime := run()
	for i := 0; i < 4; i++ {
		if d := run(); d < queryTime {
			queryTime = d
		}
	}

	// Price the off-path instrumentation: the sequence below is a strict
	// superset of the obs calls one non-sampled query makes (sampler
	// check, nil trace/span threading through every phase, latency
	// histogram observation).
	const iters = 200_000
	sampler := obs.NewSampler(0)
	hist := obs.NewRegistry().Histogram("guard_seconds", "", "", nil)
	start := time.Now()
	for i := 0; i < iters; i++ {
		var tr *obs.Trace
		if sampler.Sample() {
			tr = obs.NewTrace("query")
		}
		root := tr.Root()
		root.SetStr("mode", "sudaf-noshare")
		for _, name := range []string{"parse", "plan", "canonicalize", "sharing-lookup", "view-rewrite", "scan/agg", "cache-store", "finisher"} {
			sp := root.Child(name)
			sp.SetInt("rows", int64(i))
			sp.SetInt("groups", 8)
			sp.SetStr("kernels", "prod,count,sum")
			sp.End()
		}
		tr.Finish()
		hist.Observe(float64(i) * 1e-9)
	}
	perQuery := time.Since(start) / iters

	limit := queryTime / 50 // 2%
	if perQuery > limit {
		t.Errorf("trace-off instrumentation costs %v per query, above 2%% of the %v kernel query", perQuery, queryTime)
	}
	t.Logf("kernel query %v; trace-off instrumentation %v per query (%.4f%%)",
		queryTime, perQuery, 100*float64(perQuery)/float64(queryTime))
}

// TestSessionMetricsEndpoint pins the export contract: after a query
// and an append, the session's HTTP endpoint serves every engine, cache
// and ingestion family in Prometheus text format.
func TestSessionMetricsEndpoint(t *testing.T) {
	s := newTestSession(t, 200, 1)
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(context.Background(), "store_sales", salesDelta(7)); err != nil {
		t.Fatal(err)
	}
	srv, err := s.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want Prometheus text", ct)
	}
	text := string(body)
	for _, fam := range []string{
		"sudaf_queries_started_total", "sudaf_queries_completed_total",
		"sudaf_queries_failed_total", "sudaf_queries_queued_total",
		"sudaf_rows_scanned_total", "sudaf_query_seconds_total",
		"sudaf_queue_wait_seconds_total", "sudaf_query_duration_seconds_bucket",
		"sudaf_cache_lookups_total", `sudaf_cache_hits_total{kind="exact"}`,
		`sudaf_cache_hits_total{kind="shared"}`, `sudaf_cache_hits_total{kind="sign"}`,
		"sudaf_cache_misses_total", "sudaf_cache_evictions_total",
		"sudaf_cache_corruptions_total",
		"sudaf_ingest_appends_total", "sudaf_ingest_rows_total",
		"sudaf_ingest_entries_migrated_total", "sudaf_ingest_states_maintained_total",
		"sudaf_ingest_entries_invalidated_total",
		"sudaf_ingest_views_maintained_total", "sudaf_ingest_views_invalidated_total",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	// The counters carry real values: at least one query started and one
	// append ingested rows.
	if !strings.Contains(text, "sudaf_queries_started_total 1") {
		t.Errorf("queries_started not 1:\n%s", grepLines(text, "sudaf_queries_started"))
	}
	if !strings.Contains(text, "sudaf_ingest_rows_total 7") {
		t.Errorf("ingest_rows not 7:\n%s", grepLines(text, "sudaf_ingest_rows"))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// BenchmarkQueryTraceOff/On measure the same kernel-dominated query with
// tracing disabled and enabled; compare with benchstat. EXPERIMENTS.md
// records representative numbers.
func BenchmarkQueryTraceOff(b *testing.B) { benchQueryTrace(b, 0) }
func BenchmarkQueryTraceOn(b *testing.B)  { benchQueryTrace(b, 1) }

func benchQueryTrace(b *testing.B, rate float64) {
	s := NewSession(Options{TraceRate: rate})
	tbl := storage.NewTable("big",
		storage.NewColumn("g", storage.KindInt),
		storage.NewColumn("v", storage.KindFloat))
	for i := 0; i < 500_000; i++ {
		tbl.Col("g").AppendInt(int64(i & 7))
		tbl.Col("v").AppendFloat(float64(1 + i%97))
	}
	if err := s.Register(tbl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("SELECT g, gm(v), avg(v) FROM big GROUP BY g", ModeRewrite); err != nil {
			b.Fatal(err)
		}
	}
}
