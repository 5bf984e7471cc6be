package core

import (
	"context"
	"fmt"

	"sudaf/internal/analyzer"
	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/obs"
	"sudaf/internal/rewrite"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// scanProvider serves a pre-computed group result for a data plan and
// task registry, or reports it cannot (ok=false → the query falls back
// to its own scan). QueryBatch injects one into each replayed query's
// queryCtx so queries consume the batch's fused scans instead of
// scanning base data themselves.
type scanProvider func(dp *exec.DataPlan, reg *exec.TaskRegistry) (*exec.GroupResult, bool)

// planState is the unit the analyzer pipeline operates on: one aggregate
// statement's plan — windowed or not — built up phase by phase (resolve →
// canonicalize → share → fuse → parallelize) and then
// executed by executePlan, or driven incrementally by a Subscription.
// Each field records which phase owns it; rules only touch their own
// phase's outputs plus earlier ones.
type planState struct {
	s    *Session
	qc   *queryCtx
	stmt *sqlparse.Stmt
	mode Mode
	// continuous marks a Subscribe-owned windowed plan: EPOCHS frames
	// become legal and the state cache is bypassed (a live stream's
	// frames are perpetually one append ahead of any cached entry).
	continuous bool
	// temps marks a statement whose FROM reads subquery temporaries. Each
	// run materializes them at fresh versions, so no later query can ever
	// match its key: the cache is neither consulted nor fed.
	temps bool

	// resolve
	planSpan *obs.Span // the "plan" span, open across the resolve steps
	dp       *exec.DataPlan
	key      *exec.DataKey // the key the share phase looks (and stores) under
	calls    []*expr.Call
	spec     exec.OutputSpec
	reg      *exec.TaskRegistry
	// windowed statements only: the base table and, for a one-shot
	// query, its emission frames (the plan's "groups").
	tbl    *storage.Table
	frames []frame

	// canonicalize
	bound *binding
	slots []*slot // one per bound state, index-aligned with bound.states
	// hard indexes the calls whose hardcoded terminating function is worth
	// sharing (canonical.Form.HardTKey): its output column is memoized in the
	// cache entry holding the states it reads. memo, index-aligned with hard
	// and filled by the share phase, is the stored column the lookup found
	// valid, in entry order.
	hard []int
	memo [][]float64

	// share
	entry    *cache.GroupTable // nil when the fingerprint has no entry
	missing  []*slot
	dpRun    *exec.DataPlan
	usedView string
	events   []string

	// fuse
	companions []*slot

	// parallelize
	fullHit bool
	gr      *exec.GroupResult // fused-scan result served by a provider
}

// guard runs f recovering panics into a degradation event: the cache is
// an accelerator, so any fault in it downgrades to recomputation from
// base data, never a failed query.
func (ps *planState) guard(stage string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			ps.events = append(ps.events, fmt.Sprintf(
				"cache: panic during %s (recovered); falling back to recomputation: %v", stage, r))
		}
	}()
	f()
}

// queryPipeline is the fixed analyzer pipeline every aggregate statement
// flows through — single queries, batch replays, windowed queries and
// subscriptions alike; the batch planner and EXPLAIN run its resolve and
// canonicalize phases (planFront). Phases:
//
//	resolve      — window scope validation, FROM/WHERE/GROUP BY
//	               resolution, data fingerprint (frame-qualified for
//	               windowed statements) and emission frames,
//	               aggregate-call extraction
//	canonicalize — decompose calls into bound aggregation states and
//	               terminating-function finishers (or baseline tasks)
//	share        — consult the state cache (exact / Theorem 4.1 /
//	               sign-split), collect what is still missing, try
//	               aggregate-view roll-up rewriting
//	fuse         — register one deduplicated task per missing state
//	               (plus §5.3 sign-split companions for a plan that
//	               stores) in the scan's task registry
//	parallelize  — decide scan elision (full cache hit) or adopt a
//	               batch-provided fused scan; the morsel scheduler
//	               parallelizes whatever scan remains
//
// Rules are mode-gated internally: baseline queries no-op through the
// share and fuse phases, rewrite queries through the cache lookups.
var queryPipeline = analyzer.Pipeline[*planState]{
	Phases: []analyzer.Phase[*planState]{
		{Name: "resolve", Rules: []analyzer.Rule[*planState]{
			{Name: "validate-scope", Apply: ruleWindowScope},
			{Name: "resolve-tables", Apply: ruleResolveTables},
			{Name: "classify-predicates", Apply: ruleClassifyPredicates},
			{Name: "resolve-grouping", Apply: ruleResolveGrouping},
			{Name: "fingerprint", Apply: ruleFingerprint},
			{Name: "window-frames", Apply: ruleWindowFrames},
			{Name: "extract-aggregates", Apply: ruleExtractAggregates},
		}},
		{Name: "canonicalize", Rules: []analyzer.Rule[*planState]{
			{Name: "bind-baseline", Apply: ruleBindBaseline},
			{Name: "bind-states", Apply: ruleBindStates},
		}},
		{Name: "share", Rules: []analyzer.Rule[*planState]{
			{Name: "lookup-cache", Apply: ruleLookupCache},
			{Name: "collect-missing", Apply: ruleCollectMissing},
			{Name: "rewrite-views", Apply: ruleRewriteViews},
		}},
		{Name: "fuse", Rules: []analyzer.Rule[*planState]{
			{Name: "register-tasks", Apply: ruleRegisterTasks},
		}},
		{Name: "parallelize", Rules: []analyzer.Rule[*planState]{
			{Name: "elide-scan", Apply: ruleElideScan},
			{Name: "fused-scan", Apply: ruleFusedScan},
		}},
	},
}

// planFront runs the pipeline's resolve and canonicalize phases only:
// the data plan, fingerprints and bound states exactly as execution
// derives them. The batch planner and EXPLAIN build on it.
func (ps *planState) planFront(ctx context.Context) error {
	return queryPipeline.RunThrough(ctx, ps, "canonicalize")
}

// ---- resolve phase ----

// ruleResolveTables opens the plan span and resolves the FROM list
// against the query's catalog snapshot.
func ruleResolveTables(_ context.Context, ps *planState) error {
	ps.planSpan = ps.qc.sp.Child("plan")
	ps.dp = ps.s.eng.NewDataPlan()
	return ps.dp.ResolveFrom(ps.qc.cat, ps.stmt)
}

// ruleClassifyPredicates splits WHERE into equi-joins and pushed-down
// per-table filters.
func ruleClassifyPredicates(_ context.Context, ps *planState) error {
	return ps.dp.ClassifyWhere(ps.qc.cat, ps.stmt)
}

// ruleResolveGrouping resolves the GROUP BY columns.
func ruleResolveGrouping(_ context.Context, ps *planState) error {
	return ps.dp.ResolveGroupBy(ps.qc.cat, ps.stmt)
}

// ruleFingerprint seals the data plan into its data key, qualifies the
// key by the frame for a windowed statement (the key its states are
// cached under), and closes the plan span.
func ruleFingerprint(_ context.Context, ps *planState) error {
	ps.dp.Seal()
	ps.dpRun = ps.dp
	ps.key = &ps.dp.Key
	ps.planSpan.SetStr("fingerprint", ps.key.String())
	if w := ps.stmt.Window; w != nil {
		ps.key = ps.key.Framed(w.String())
		ps.planSpan.SetStr("window", w.String())
	}
	ps.planSpan.End()
	return nil
}

// ruleExtractAggregates replaces aggregate calls in the select list with
// placeholders and starts the output spec and task registry.
func ruleExtractAggregates(_ context.Context, ps *planState) error {
	items := make([]sqlparse.SelectItem, len(ps.stmt.Select))
	for i, item := range ps.stmt.Select {
		items[i] = sqlparse.SelectItem{
			Expr:  exec.ExtractAggCalls(item.Expr, ps.s.isAgg, &ps.calls),
			Alias: item.Alias,
		}
	}
	ps.spec = exec.OutputSpec{Items: items, Numeric: ps.s.NumericPolicySetting()}
	ps.reg = exec.NewTaskRegistry()
	return nil
}

// ---- canonicalize phase ----

// ruleBindBaseline (baseline mode only) compiles each aggregate call the
// way the baseline systems run it: built-ins native, UDAFs hardcoded.
func ruleBindBaseline(_ context.Context, ps *planState) error {
	if ps.mode != ModeBaseline {
		return nil
	}
	for _, call := range ps.calls {
		fin, err := ps.s.baselineFinisher(call, ps.reg)
		if err != nil {
			return err
		}
		ps.spec.Finishers = append(ps.spec.Finishers, fin)
		ps.spec.Labels = append(ps.spec.Labels, call.String())
	}
	return nil
}

// boundCall is one aggregate call bound to a statement's state list.
type boundCall struct {
	form *canonical.Form
	// states indexes binding.states, one entry per form state in order.
	states []int
}

// binding is the canonical decomposition of a statement's aggregate
// calls: the deduplicated bound states in first-use order (two
// aggregates needing Σx share one state, one cache slot and one task),
// each state's data positivity, and every call's view of them.
type binding struct {
	states   []canonical.State
	positive []bool
	calls    []boundCall
}

// bindCalls is the one call→state binding of the engine: every consumer
// of a statement's canonical states (execution, batch planning, EXPLAIN,
// SQL rewriting, view materialization, native baseline forms) goes
// through it, so they agree on state keys and order by construction.
// Positivity is decided against cat over the given tables; a nil cat
// (no data part at hand) leaves every state not provably positive.
func (s *Session) bindCalls(calls []*expr.Call, cat *catalog.Catalog, tables []string) (*binding, error) {
	b := &binding{calls: make([]boundCall, len(calls))}
	index := map[string]int{}
	for ci, call := range calls {
		form, err := s.formFor(call.Name)
		if err != nil {
			return nil, err
		}
		if len(call.Args) != len(form.Params) {
			return nil, fmt.Errorf("%s takes %d argument(s), got %d", call.Name, len(form.Params), len(call.Args))
		}
		bind := make(map[string]expr.Node, len(form.Params))
		for i, p := range form.Params {
			bind[p] = call.Args[i]
		}
		idxs := make([]int, len(form.States))
		for j, st := range form.States {
			if st.Op != canonical.OpCount {
				st.Base = expr.Simplify(expr.Substitute(st.Base, bind))
			}
			key := st.Key()
			idx, seen := index[key]
			if !seen {
				idx = len(b.states)
				index[key] = idx
				b.states = append(b.states, st)
				b.positive = append(b.positive, cat != nil && basePositive(cat, st.Base, tables))
			}
			idxs[j] = idx
		}
		b.calls[ci] = boundCall{form: form, states: idxs}
	}
	return b, nil
}

// termFinisher builds the finisher applying a compiled terminating
// function to the value-matrix columns *cols[j] (read at call time: slot
// columns are only assigned when the plan executes).
func termFinisher(tfn func([]float64) float64, cols []*int) exec.Finisher {
	buf := make([]float64, len(cols))
	return func(vals [][]float64, g int) float64 {
		for j, c := range cols {
			buf[j] = vals[*c][g]
		}
		return tfn(buf)
	}
}

// ruleBindStates (SUDAF modes) decomposes every aggregate call into
// bound aggregation states (deduplicated into slots) plus a terminating
// function finisher over the slots' value columns.
func ruleBindStates(_ context.Context, ps *planState) error {
	if ps.mode == ModeBaseline {
		return nil
	}
	csp := ps.qc.sp.Child("canonicalize")
	b, err := ps.s.bindCalls(ps.calls, ps.qc.cat, ps.dp.Tables())
	if err != nil {
		return err
	}
	ps.bound = b
	ps.slots = make([]*slot, len(b.states))
	for i, st := range b.states {
		ps.slots[i] = &slot{st: st, positive: b.positive[i], taskIdx: -1}
	}
	for ci, bc := range b.calls {
		tfn, err := bc.form.CompileT()
		if err != nil {
			return fmt.Errorf("%s: %w", ps.calls[ci].Name, err)
		}
		cols := make([]*int, len(bc.states))
		for j, si := range bc.states {
			cols[j] = &ps.slots[si].finalIdx
		}
		ps.spec.Finishers = append(ps.spec.Finishers, termFinisher(tfn, cols))
		ps.spec.Labels = append(ps.spec.Labels, ps.calls[ci].String())
		// A declarative T is a compiled closure costing nanoseconds per
		// group: keeping its output would only bloat entries.
		if bc.form.HardT != nil && bc.form.HardTKey != "" {
			ps.hard = append(ps.hard, ci)
		}
	}
	csp.SetInt("aggregates", int64(len(ps.calls)))
	csp.SetInt("states", int64(len(ps.slots)))
	csp.End()
	return nil
}

// ---- share phase ----

// usesCache reports whether the plan reads and feeds the state cache:
// share mode, except for a subscription — its frames are always one
// append ahead of anything cached — and a statement over subquery
// temporaries, whose key no later query can match.
func (ps *planState) usesCache() bool {
	return ps.mode == ModeShare && !ps.continuous && !ps.temps
}

// ruleLookupCache (a plan that uses the cache) consults the query's cache
// snapshot for every slot under the plan's key: exact hit, Theorem 4.1
// sharing, or §5.3 sign-split reconstruction. Guarded: a cache that
// panics behaves like a cache that misses.
func ruleLookupCache(_ context.Context, ps *planState) error {
	if !ps.usesCache() {
		return nil
	}
	qc := ps.qc
	lsp := qc.sp.Child("sharing-lookup")
	// A cached per-emission vector is usable only when its length matches
	// this table version's emission count; a stale-length one is ignored.
	var usable func([]float64) bool
	if ps.stmt.Window != nil {
		usable = func(vals []float64) bool { return len(vals) == len(ps.frames) }
	}
	memos := make([]cache.FinalWant, len(ps.hard))
	for i, ci := range ps.hard {
		bc := ps.bound.calls[ci]
		memos[i] = cache.FinalWant{T: bc.form.HardTKey, Src: bc.states}
	}
	look := qc.cache.LookupAll(ps.key.String(), ps.bound.states, ps.bound.positive, memos, usable, ps.guard)
	ps.entry, ps.memo = look.Entry, look.Finals
	for i, sl := range ps.slots {
		sl.cached = look.Vals[i]
	}
	qc.stats.CacheExactHits += look.Exact
	qc.stats.CacheSharedHits += look.Shared
	qc.stats.CacheSignHits += look.Sign
	qc.stats.CacheMisses += look.Misses
	// The span reports this lookup alone; qc.stats totals the statement,
	// FROM-subqueries included.
	lsp.SetInt("exact", int64(look.Exact))
	lsp.SetInt("shared", int64(look.Shared))
	lsp.SetInt("sign", int64(look.Sign))
	lsp.SetInt("miss", int64(look.Misses))
	lsp.SetInt("verified", int64(look.Verified))
	lsp.End()
	return nil
}

// ruleCollectMissing lists the slots the cache could not serve, in slot
// order (in rewrite mode — no cache — that is every slot).
func ruleCollectMissing(_ context.Context, ps *planState) error {
	for _, sl := range ps.slots {
		if sl.cached == nil {
			ps.missing = append(ps.missing, sl)
		}
	}
	return nil
}

// ruleRewriteViews tries aggregate-view roll-up rewriting (Q3 → RQ3')
// for the missing states: when a materialized state view subsumes the
// data part, the missing states compute from the view's partial states
// instead of base data. Windowed statements never roll up: a view's
// groups are not their frames.
func ruleRewriteViews(_ context.Context, ps *planState) error {
	if len(ps.missing) == 0 || ps.entry != nil || ps.stmt.Window != nil {
		return nil
	}
	vsp := ps.qc.sp.Child("view-rewrite")
	if dpv, rollup, name := ps.s.tryViews(ps.qc, ps.dp, ps.missing); dpv != nil {
		ps.dpRun = dpv
		ps.usedView = name
		vsp.SetStr("view", name)
		for _, sl := range ps.missing {
			st := rewrite.RollupState(sl.st, rollup.StateCol[sl.st.Key()])
			sl.taskIdx = addStateTask(ps.reg, st, sl.st.Key())
		}
		ps.missing = nil
	}
	vsp.End()
	return nil
}

// ---- fuse phase ----

// ruleRegisterTasks registers one deduplicated scan task per missing
// state — the fusion step: every remaining consumer shares the single
// scan these tasks ride on — plus, for a plan that stores its states,
// the §5.3 sign-split companion states needed to keep their future
// sharing sound over signed data.
func ruleRegisterTasks(_ context.Context, ps *planState) error {
	for _, sl := range ps.missing {
		sl.taskIdx = addStateTask(ps.reg, sl.st, sl.st.Key())
		if !ps.usesCache() {
			continue
		}
		for _, comp := range signCompanions(ps.mode, sl.st, sl.positive) {
			cs := &slot{st: comp}
			cs.taskIdx = addStateTask(ps.reg, comp, comp.Key())
			ps.companions = append(ps.companions, cs)
		}
	}
	return nil
}

// ---- parallelize phase ----

// ruleElideScan skips execution entirely when the cache served every
// state and the cached entry supplies the group structure.
func ruleElideScan(_ context.Context, ps *planState) error {
	if ps.reg.Len() == 0 && ps.mode == ModeShare && ps.entry != nil {
		ps.fullHit = true
	}
	return nil
}

// ruleFusedScan (batch replay only) asks the batch's scan provider for
// the query's group result: when the batch pre-computed a fused scan
// covering every registered task, the query consumes it instead of
// scanning. A provider that cannot serve (fingerprint unknown, task
// missing, view rewrite redirected the plan) leaves ps.gr nil and the
// query falls back to its own scan.
func ruleFusedScan(_ context.Context, ps *planState) error {
	if ps.fullHit || ps.qc.provide == nil || ps.reg.Len() == 0 {
		return nil
	}
	if gr, ok := ps.qc.provide(ps.dpRun, ps.reg); ok {
		ps.gr = gr
	}
	return nil
}

// ---- execution (after the pipeline) ----

// executePlan runs the analyzed plan: execute the fused scan (or adopt
// the provided one, or elide it on a full cache hit; a windowed statement
// scans with the chronological fold executor instead), assemble the value
// matrix from task outputs and cached arrays, store freshly computed
// states, and build the output table.
func (s *Session) executePlan(ctx context.Context, ps *planState) (*Result, error) {
	qc := ps.qc
	windowed := ps.stmt.Window != nil
	var gr *exec.GroupResult
	switch {
	case ps.fullHit:
		gr = &exec.GroupResult{
			NumGroups:  ps.entry.NumGroups(),
			Keys:       ps.entry.Keys,
			KeyNames:   ps.entry.KeyNames,
			KeyColumns: ps.entry.KeyCols,
			Rows:       0,
		}
	case ps.gr != nil:
		gr = ps.gr
		qc.noteKernels(gr)
	case windowed:
		var err error
		if gr, err = s.windowScan(ctx, ps); err != nil {
			return nil, err
		}
	default:
		ssp := qc.sp.Child("scan/agg")
		if ps.mode != ModeBaseline {
			ssp.SetInt("tasks", int64(ps.reg.Len()))
		}
		var err error
		gr, err = s.eng.RunSpecs(ctx, ps.dpRun, ps.reg)
		if err != nil {
			return nil, err
		}
		noteScanAgg(ssp, gr)
		ssp.End()
		qc.noteKernels(gr)
	}

	// Assemble the value matrix: task outputs first, then cached arrays
	// aligned to the result's group order.
	for _, sl := range ps.slots {
		if sl.cached == nil {
			sl.finalIdx = sl.taskIdx
			continue
		}
		aligned := sl.cached
		if !ps.fullHit {
			var ok bool
			aligned, ok = alignEntryToResult(ps.entry, gr, sl.cached)
			if !ok {
				return nil, fmt.Errorf("cache entry misaligned with result groups for state %s", sl.st.Key())
			}
		}
		sl.finalIdx = len(gr.Values)
		gr.Values = append(gr.Values, aligned)
	}

	// memoInto is the cache entry holding every state of this plan in gr's
	// own group order, where a terminating-function column computed over gr
	// can be stored as is: the entry behind a full hit, or the table this
	// query is about to insert.
	var memoInto *cache.GroupTable
	if ps.fullHit {
		memoInto = ps.entry
	}

	// Cache the freshly computed states (and companions). Guarded: a
	// failed insert costs future sharing, not this query.
	if ps.usesCache() && !ps.fullHit {
		stsp := qc.sp.Child("cache-store")
		stored := 0
		ps.guard("state insert", func() {
			gt := cache.NewGroupTable(ps.key.String(), gr.KeyNames, gr.Keys, gr.KeyColumns)
			// Attach the maintenance record: the key, whose table versions
			// tell the append path whether the entry is affected, and the
			// statement it re-plans over the delta batch to delta-fold into
			// this entry instead of invalidating it. Window entries carry
			// no statement: an append shifts every emission of the new
			// version, so invalidation is the correct response.
			mr := &maintRec{key: *ps.key}
			if !windowed {
				mr.stmt = ps.stmt
			}
			gt.Maint = mr
			fresh := make([]*cache.CachedState, 0, len(ps.missing)+len(ps.companions))
			for _, sl := range ps.slots {
				if sl.taskIdx >= 0 {
					fresh = append(fresh, &cache.CachedState{
						State:         sl.st,
						Vals:          gr.Values[sl.taskIdx],
						PositiveInput: sl.positive,
					})
				}
			}
			for _, cs := range ps.companions {
				fresh = append(fresh, &cache.CachedState{State: cs.st, Vals: gr.Values[cs.taskIdx]})
			}
			var entry *cache.GroupTable
			entry, stored = qc.cache.StoreAll(gt, fresh)
			if entry == gt && ps.entry == nil {
				memoInto = gt
			}
		})
		stsp.SetInt("states", int64(stored))
		stsp.End()
	}

	fsp := qc.sp.Child("finisher")
	memoHits, solved, err := ps.memoizeFinishers(ctx, gr, memoInto)
	if err != nil {
		return nil, err
	}
	if len(ps.hard) > 0 {
		fsp.SetInt("memo_hits", int64(memoHits))
		fsp.SetInt("solved_groups", int64(solved))
	}
	var out *exec.Result
	if windowed {
		out, err = exec.BuildWindowOutput(ctx, ps.spec, ps.tbl, emitRows(ps.frames), gr.Values)
	} else {
		out, err = exec.BuildOutput(ctx, ps.stmt, ps.dpRun, gr, ps.spec)
	}
	if err != nil {
		return nil, err
	}
	if windowed {
		fsp.SetInt("windows", int64(out.Groups))
		s.windowEmits.Add(int64(out.Groups))
	} else {
		fsp.SetInt("groups", int64(out.Groups))
	}
	fsp.End()
	if ps.mode == ModeShare {
		ps.events = append(ps.events, qc.cache.DrainEvents()...)
	}
	res := &Result{
		Table:         out.Table,
		RowsScanned:   gr.Rows,
		Groups:        out.Groups,
		UsedView:      ps.usedView,
		FullCacheHit:  ps.fullHit,
		NumericFaults: out.NumericFaults,
		Events:        ps.events,
		Stats:         qc.stats,
	}
	noteNumericFaults(res)
	return res, nil
}

// memoizeFinishers makes every memoizable hardcoded terminating function
// one more column of the value matrix, its finisher a column read. A column
// the lookup served is aligned like any cached state. Otherwise, when the
// statement finishes every group of gr and into is the entry holding the
// call's states in gr's order, T runs here once over all groups and the
// column is stored for the queries that follow. ORDER BY key LIMIT n
// finishes only n groups: it keeps its per-group finisher and stores
// nothing (solving 10,000 groups to answer 20 would be a regression).
// Reports the columns read from the memo and the groups T is solved for,
// here or in the projection.
func (ps *planState) memoizeFinishers(ctx context.Context, gr *exec.GroupResult, into *cache.GroupTable) (hits, solved int, err error) {
	finished := gr.NumGroups
	if ps.stmt.Window == nil && exec.LimitsByKeys(ps.stmt, gr) {
		finished, into = ps.stmt.Limit, nil
	}
	for i, ci := range ps.hard {
		var col []float64
		if ps.memo != nil {
			col = ps.memo[i]
		}
		if col != nil && !ps.fullHit {
			col, _ = alignEntryToResult(ps.entry, gr, col)
		}
		if col != nil {
			hits++
		} else {
			solved += finished
			if into == nil {
				continue
			}
			fin := ps.spec.Finishers[ci]
			col = make([]float64, gr.NumGroups)
			for g := range col {
				if g%1024 == 0 {
					if err := ctx.Err(); err != nil {
						return 0, 0, err
					}
				}
				col[g] = fin(gr.Values, g)
			}
			bc := ps.bound.calls[ci]
			sums := make([]uint64, len(bc.states))
			for j, si := range bc.states {
				sums[j] = cache.ChecksumVals(gr.Values[ps.slots[si].finalIdx])
			}
			// Each store swaps in a successor entry; the next stores into it.
			ps.guard("final insert", func() { into = ps.qc.cache.StoreFinal(into, bc.form.HardTKey, col, sums) })
		}
		idx := len(gr.Values)
		gr.Values = append(gr.Values, col)
		ps.spec.Finishers[ci] = func(vals [][]float64, g int) float64 { return vals[idx][g] }
	}
	return hits, solved, nil
}
