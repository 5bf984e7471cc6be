package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sudaf/internal/exec"
	"sudaf/internal/sqlparse"
)

// newPlanState parses a statement and returns a fresh planState over a
// fresh snapshot pair, ready for the pipeline.
func newPlanState(t *testing.T, s *Session, sql string, mode Mode) *planState {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	qc := &queryCtx{cat: s.cat.Snapshot(), cache: s.stateCache()}
	return &planState{s: s, qc: qc, stmt: stmt, mode: mode}
}

// runRules applies the named phase/rule pairs in order.
func runRules(t *testing.T, ps *planState, names ...string) {
	t.Helper()
	for _, n := range names {
		parts := strings.SplitN(n, "/", 2)
		r, ok := queryPipeline.Rule(parts[0], parts[1])
		if !ok {
			t.Fatalf("unknown rule %s", n)
		}
		if err := r.Apply(context.Background(), ps); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

var resolveRules = []string{
	"resolve/validate-scope", "resolve/resolve-tables", "resolve/classify-predicates",
	"resolve/resolve-grouping", "resolve/fingerprint", "resolve/window-frames",
	"resolve/extract-aggregates",
}

func TestPipelinePhaseNames(t *testing.T) {
	want := "[resolve canonicalize share fuse parallelize distribute]"
	if got := fmt.Sprint(queryPipeline.PhaseNames()); got != want {
		t.Fatalf("phases = %s, want %s", got, want)
	}
}

func TestResolveRulesBuildDataPlan(t *testing.T) {
	s := newTestSession(t, 500, 2)
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeShare)
	runRules(t, ps, resolveRules...)
	if ps.dp == nil || ps.dp.Fingerprint == "" {
		t.Fatal("resolve did not seal a fingerprinted data plan")
	}
	if ps.dpRun != ps.dp {
		t.Fatal("dpRun must start as the resolved plan")
	}
	if len(ps.calls) != 1 || ps.calls[0].Name != "avg" {
		t.Fatalf("calls = %v", ps.calls)
	}
	if ps.reg == nil || ps.reg.Len() != 0 {
		t.Fatal("registry must be created empty by resolve")
	}
	if len(ps.spec.Items) != 2 {
		t.Fatalf("%d select items", len(ps.spec.Items))
	}
}

func TestResolveRuleRejectsUnknownTable(t *testing.T) {
	s := newTestSession(t, 10, 1)
	ps := newPlanState(t, s, "SELECT sum(x) FROM nope", ModeBaseline)
	r, _ := queryPipeline.Rule("resolve", "resolve-tables")
	if err := r.Apply(context.Background(), ps); err == nil {
		t.Fatal("resolve-tables accepted an unknown table")
	}
}

func TestBindBaselineIsModeGated(t *testing.T) {
	s := newTestSession(t, 100, 1)
	// In baseline mode: one task per call, no state slots.
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, sum(ss_list_price), avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk",
		ModeBaseline)
	runRules(t, ps, append(resolveRules, "canonicalize/bind-baseline", "canonicalize/bind-states")...)
	if ps.reg.Len() != 2 || len(ps.spec.Finishers) != 2 {
		t.Fatalf("baseline: %d tasks, %d finishers", ps.reg.Len(), len(ps.spec.Finishers))
	}
	if len(ps.slots) != 0 {
		t.Fatal("baseline must not decompose into states")
	}
}

func TestBindStatesDeduplicatesSlots(t *testing.T) {
	s := newTestSession(t, 100, 1)
	// sum+avg+stddev share the Σx and count states: 3 calls → 3 slots
	// (sum, count, sum of squares), not 5.
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, sum(ss_list_price), avg(ss_list_price), stddev(ss_list_price) FROM store_sales GROUP BY ss_store_sk",
		ModeShare)
	runRules(t, ps, append(resolveRules, "canonicalize/bind-baseline", "canonicalize/bind-states")...)
	if len(ps.spec.Finishers) != 3 {
		t.Fatalf("%d finishers", len(ps.spec.Finishers))
	}
	if len(ps.slots) != 3 {
		t.Fatalf("%d slots, want 3 deduplicated states", len(ps.slots))
	}
	if ps.reg.Len() != 0 {
		t.Fatal("canonicalize must not register tasks yet")
	}
}

// TestWindowedStatementBindsTheSameStates: a windowed statement flows
// through the same resolve and canonicalize rules on the same plan type,
// so over the same calls it binds the same state keys in the same order
// as its unwindowed twin — only the fingerprint the share phase looks
// under (frame-qualified) and the emission frames differ.
func TestWindowedStatementBindsTheSameStates(t *testing.T) {
	s := newTestSession(t, 100, 1)
	const calls = "sum(ss_list_price), avg(ss_list_price), stddev(ss_list_price), qm(ss_sales_price)"
	keys := func(ps *planState) string {
		var out []string
		for _, sl := range ps.slots {
			out = append(out, sl.st.Key())
		}
		return strings.Join(out, " | ")
	}
	for _, mode := range []Mode{ModeRewrite, ModeShare} {
		plain := newPlanState(t, s, "SELECT "+calls+" FROM store_sales", mode)
		runRules(t, plain, append(resolveRules, "canonicalize/bind-baseline", "canonicalize/bind-states")...)
		win := newPlanState(t, s, "SELECT "+calls+" OVER (ROWS 4 PRECEDING) FROM store_sales", mode)
		runRules(t, win, append(resolveRules, "canonicalize/bind-baseline", "canonicalize/bind-states")...)
		if len(plain.slots) == 0 || keys(win) != keys(plain) {
			t.Fatalf("%s: windowed states %q, unwindowed %q", mode, keys(win), keys(plain))
		}
		if plain.shareFP != plain.dp.Fingerprint || len(plain.frames) != 0 {
			t.Fatalf("unwindowed plan must share under its data fingerprint, got %q", plain.shareFP)
		}
		if win.dp.Fingerprint != plain.dp.Fingerprint ||
			win.shareFP != plain.dp.Fingerprint+"|W[ROWS 4 PRECEDING]" {
			t.Fatalf("windowed fingerprints: data %q share %q", win.dp.Fingerprint, win.shareFP)
		}
		if len(win.frames) != win.tbl.NumRows() {
			t.Fatalf("%d frames for %d rows", len(win.frames), win.tbl.NumRows())
		}
	}
}

func TestShareRulesColdCache(t *testing.T) {
	s := newTestSession(t, 100, 1)
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeShare)
	runRules(t, ps, append(resolveRules,
		"canonicalize/bind-states", "share/lookup-cache", "share/collect-missing")...)
	if ps.entry != nil {
		t.Fatal("cold cache cannot have an entry")
	}
	if len(ps.missing) != len(ps.slots) {
		t.Fatalf("missing = %d, want all %d", len(ps.missing), len(ps.slots))
	}
	if ps.qc.stats.CacheMisses != len(ps.slots) {
		t.Fatalf("CacheMisses = %d, want %d", ps.qc.stats.CacheMisses, len(ps.slots))
	}
}

func TestLookupCacheServesWarmStates(t *testing.T) {
	s := newTestSession(t, 200, 2)
	// Warm the cache with the same data part.
	if _, err := s.Query(
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeShare); err != nil {
		t.Fatal(err)
	}
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeShare)
	runRules(t, ps, append(resolveRules,
		"canonicalize/bind-states", "share/lookup-cache", "share/collect-missing")...)
	if ps.entry == nil {
		t.Fatal("warm cache entry not found")
	}
	if len(ps.missing) != 0 {
		t.Fatalf("missing = %d after warmup", len(ps.missing))
	}
	if ps.qc.stats.CacheExactHits != len(ps.slots) {
		t.Fatalf("exact hits = %d, want %d", ps.qc.stats.CacheExactHits, len(ps.slots))
	}
}

func TestRegisterTasksAddsCompanions(t *testing.T) {
	s := newTestSession(t, 100, 1)
	if err := s.DefineUDAF("pr", []string{"x"}, "prod(x)"); err != nil {
		t.Fatal(err)
	}
	// ss_sales_price - 60 is signed, so the prod state needs the §5.3
	// sign-split companions: 1 missing state → 3 registered tasks.
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, pr(ss_sales_price - 60) FROM store_sales GROUP BY ss_store_sk", ModeShare)
	runRules(t, ps, append(resolveRules,
		"canonicalize/bind-states", "share/lookup-cache", "share/collect-missing",
		"share/rewrite-views", "fuse/register-tasks")...)
	if ps.reg.Len() != 3 {
		t.Fatalf("tasks = %v, want prod + 2 companions", ps.reg.Keys())
	}
	if len(ps.companions) != 2 {
		t.Fatalf("%d companions", len(ps.companions))
	}
	for _, sl := range ps.missing {
		if sl.taskIdx < 0 {
			t.Fatal("missing slot left without a task")
		}
	}
}

func TestElideScanRequiresFullHit(t *testing.T) {
	s := newTestSession(t, 100, 1)
	if _, err := s.Query(
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeShare); err != nil {
		t.Fatal(err)
	}
	ps := newPlanState(t, s,
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeShare)
	runRules(t, ps, append(resolveRules,
		"canonicalize/bind-states", "share/lookup-cache", "share/collect-missing",
		"share/rewrite-views", "fuse/register-tasks", "parallelize/elide-scan")...)
	if !ps.fullHit {
		t.Fatal("full cache hit must elide the scan")
	}
	// The same plan in rewrite mode keeps scanning: no cache, no elision.
	ps2 := newPlanState(t, s,
		"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", ModeRewrite)
	runRules(t, ps2, append(resolveRules,
		"canonicalize/bind-states", "share/lookup-cache", "share/collect-missing",
		"share/rewrite-views", "fuse/register-tasks", "parallelize/elide-scan")...)
	if ps2.fullHit || ps2.reg.Len() == 0 {
		t.Fatal("rewrite mode must compute its states")
	}
}

func TestFusedScanRuleConsultsProvider(t *testing.T) {
	s := newTestSession(t, 100, 1)
	build := func(mode Mode, provide scanProvider) *planState {
		ps := newPlanState(t, s,
			"SELECT ss_store_sk, avg(ss_list_price) FROM store_sales GROUP BY ss_store_sk", mode)
		ps.qc.provide = provide
		runRules(t, ps, append(resolveRules,
			"canonicalize/bind-states", "share/lookup-cache", "share/collect-missing",
			"share/rewrite-views", "fuse/register-tasks", "parallelize/elide-scan",
			"parallelize/fused-scan")...)
		return ps
	}
	served := &exec.GroupResult{NumGroups: 1}
	var askedKeys []string
	ps := build(ModeRewrite, func(dp *exec.DataPlan, reg *exec.TaskRegistry) (*exec.GroupResult, bool) {
		askedKeys = reg.Keys()
		return served, true
	})
	if ps.gr != served {
		t.Fatal("provider result not adopted")
	}
	if len(askedKeys) != ps.reg.Len() {
		t.Fatalf("provider asked for %d keys, registry has %d", len(askedKeys), ps.reg.Len())
	}
	// A provider that cannot serve leaves the plan scanning for itself.
	ps2 := build(ModeRewrite, func(dp *exec.DataPlan, reg *exec.TaskRegistry) (*exec.GroupResult, bool) {
		return nil, false
	})
	if ps2.gr != nil {
		t.Fatal("declined provider must leave gr nil")
	}
	// No provider: rule is a no-op.
	ps3 := build(ModeRewrite, nil)
	if ps3.gr != nil {
		t.Fatal("nil provider must leave gr nil")
	}
}

func TestPipelineErrorsNameTheRule(t *testing.T) {
	s := newTestSession(t, 10, 1)
	ps := newPlanState(t, s, "SELECT sum(x) FROM nope", ModeBaseline)
	err := queryPipeline.Run(context.Background(), ps)
	if err == nil || !strings.Contains(err.Error(), "analyzer resolve/resolve-tables") {
		t.Fatalf("err = %v, want analyzer resolve/resolve-tables position", err)
	}
}
