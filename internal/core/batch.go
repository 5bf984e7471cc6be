package core

import (
	"context"
	"fmt"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/errs"
	"sudaf/internal/exec"
	"sudaf/internal/sharing"
	"sudaf/internal/sqlparse"
)

// Batch state dispositions, as planned by planBatch and reported by
// BatchExplain.
const (
	// dispComputed: the state is computed by the group's fused scan.
	dispComputed = "computed"
	// dispFused: an identical state was already planned by an earlier
	// batch member; the fused scan computes it once for both.
	dispFused = "batch:fused"
	// dispDerived: Theorem 4.1 unifies the state with another in-flight
	// batch state — at replay it derives from the earlier member's
	// stored state instead of being scanned for.
	dispDerived = "batch:derived"
	// dispCache + the probed hit kind ("cache:exact", "cache:shared",
	// "cache:sign"): the pre-batch cache already serves the state.
	dispCache = "cache:"
)

// batchStateInfo is the planning provenance of one member state.
type batchStateInfo struct {
	// Key is the canonical state key.
	Key string
	// Disposition is one of the disp* constants.
	Disposition string
	// Via is the serving state's key (cache hits and batch derivations).
	Via string
	// Rewrite is the scalar rewriting r with state = r(via), rendered
	// over s (sharing-based dispositions only).
	Rewrite string
}

// batchMember is one query of a batch as the planner sees it.
type batchMember struct {
	index int
	stmt  *sqlparse.Stmt
	// solo members (subqueries, non-aggregate statements) replay
	// through the ordinary pipeline without a fused-scan provider.
	solo    bool
	soloWhy string
	// group indexes batchPlan.groups; -1 for solo members.
	group  int
	states []batchStateInfo
}

// batchCand is a state planned for computation in a group's fused scan —
// the candidate pool for pairwise Theorem 4.1 unification among the
// in-flight batch.
type batchCand struct {
	st       canonical.State
	positive bool
	owner    int // batch index of the member that first planned it
}

// batchGroup collects the batch members whose data parts share one key
// (that of dp, the first member's plan): they are served by a single
// fused scan running the union of their surviving tasks.
type batchGroup struct {
	dp      *exec.DataPlan
	reg     *exec.TaskRegistry // fused-scan task union
	members []int
	compute []batchCand
	// gr is the fused scan's result; rowsGiven marks that its row/kernel
	// cost was already attributed to one member's Result.
	gr        *exec.GroupResult
	rowsGiven bool
}

// scatterSet returns the shard set the group's fused scan scatter-gathers
// over, or nil when it runs as one local scan: an unsharded session,
// baseline mode, an empty task union, a union with a task no canonical
// state backs (g.compute is index-aligned with the registry only when it
// covers every task), or no table whose shard set matches the pinned
// version. QueryBatch and BatchExplain both decide through it.
func (g *batchGroup) scatterSet(s *Session, mode Mode) *shardSet {
	if s.shards == nil || mode == ModeBaseline || g.reg.Len() == 0 || len(g.compute) != g.reg.Len() {
		return nil
	}
	return s.shards.pickSet(&g.dp.Key)
}

// batchPlan is the analyzed shape of a whole batch.
type batchPlan struct {
	members []*batchMember
	groups  []*batchGroup
}

// planBatch analyzes a batch: runs every query through the pipeline's
// own resolve and canonicalize phases, groups them by data fingerprint,
// and builds each group's fused-scan task union — dropping states the
// pre-batch cache already serves (probed read-only) and states Theorem
// 4.1 derives from another in-flight batch state. It has no side effects
// on the cache, so BatchExplain shares it.
func (s *Session) planBatch(ctx context.Context, qc *queryCtx, stmts []*sqlparse.Stmt, mode Mode) (*batchPlan, error) {
	plan := &batchPlan{}
	groupIdx := map[string]int{}
	for i, stmt := range stmts {
		m := &batchMember{index: i, stmt: stmt, group: -1}
		plan.members = append(plan.members, m)
		if err := s.checkAggregates(stmt); err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		for _, ref := range stmt.From {
			if ref.Sub != nil {
				m.solo, m.soloWhy = true, "subqueries execute standalone"
			}
		}
		if !m.solo && stmt.Window != nil {
			m.solo, m.soloWhy = true, "windowed statements fold chronologically, not in a fused scan"
		}
		if !m.solo && !s.hasAggregates(stmt) && len(stmt.GroupBy) == 0 {
			m.solo, m.soloWhy = true, "non-aggregate statement"
		}
		if m.solo {
			continue
		}
		// The member's data plan and bound states (or baseline tasks) come
		// from the same front phases its replay will run.
		ps := &planState{s: s, qc: qc, stmt: stmt, mode: mode}
		if err := ps.planFront(ctx); err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		fp := ps.dp.Key.String()
		gi, ok := groupIdx[fp]
		if !ok {
			gi = len(plan.groups)
			groupIdx[fp] = gi
			plan.groups = append(plan.groups, &batchGroup{dp: ps.dp, reg: exec.NewTaskRegistry()})
		}
		g := plan.groups[gi]
		m.group = gi
		g.members = append(g.members, i)
		s.planMemberStates(qc, m, g, ps)
	}
	return plan, nil
}

// planMemberStates folds one member's aggregation needs (as analyzed by
// the front phases into ps) into its group's fused-scan union. The
// planner only decides what the fused scan computes; replay re-derives
// every sharing decision against the live cache, so a planning
// misprediction costs a fallback scan, never a wrong answer.
func (s *Session) planMemberStates(qc *queryCtx, m *batchMember, g *batchGroup, ps *planState) {
	if ps.mode == ModeBaseline {
		// Baseline tasks are keyed by call text (naive) or state key
		// (native): merge the member's task set into the union,
		// key-deduplicated.
		for i, key := range ps.reg.Keys() {
			if g.reg.Has(key) {
				m.states = append(m.states, batchStateInfo{Key: key, Disposition: dispFused})
				continue
			}
			g.reg.Add(key, ps.reg.Spec(i))
			m.states = append(m.states, batchStateInfo{Key: key, Disposition: dispComputed})
		}
		return
	}
	for _, sl := range ps.slots {
		m.states = append(m.states, s.planOneState(qc, g, m.index, sl.st, sl.positive, ps.mode))
	}
}

// planOneState decides how one bound state is served: by the pre-batch
// cache, by an identical in-flight state, by Theorem 4.1 derivation from
// an in-flight state, or by computing it in the fused scan.
func (s *Session) planOneState(qc *queryCtx, g *batchGroup, owner int, bs canonical.State, positive bool, mode Mode) batchStateInfo {
	key := bs.Key()
	if mode == ModeShare {
		// Read-only probe against the pre-batch cache: states it already
		// serves are left to the replay's ordinary cache lookup.
		if pr := qc.cache.Probe(g.dp.Key.String(), bs, positive); pr.Kind != cache.HitNone {
			return batchStateInfo{Key: key, Disposition: dispCache + pr.Kind.String(), Via: pr.Matched, Rewrite: pr.Rewrite}
		}
	}
	if g.reg.Has(key) {
		// An earlier member plans the identical state: one task serves
		// both (in share mode the replay turns this into an exact cache
		// hit once the earlier member stores it).
		return batchStateInfo{Key: key, Disposition: dispFused}
	}
	if mode == ModeShare {
		// Pairwise Theorem 4.1 unification among the in-flight batch:
		// if an already-planned state subsumes this one, skip its task —
		// the replay derives it from the earlier member's stored state
		// exactly as it would from any cached state.
		for _, cand := range g.compute {
			if d, ok := sharing.ShareDetail(bs, cand.st, positive || cand.positive); ok {
				return batchStateInfo{
					Key: key, Disposition: dispDerived,
					Via: cand.st.Key(), Rewrite: d.R.Render("s"),
				}
			}
		}
	}
	addStateTask(g.reg, bs, key)
	g.compute = append(g.compute, batchCand{st: bs, positive: positive, owner: owner})
	for _, comp := range signCompanions(mode, bs, positive) {
		if !g.reg.Has(comp.Key()) {
			addStateTask(g.reg, comp, comp.Key())
			g.compute = append(g.compute, batchCand{st: comp, owner: owner})
		}
	}
	return batchStateInfo{Key: key, Disposition: dispComputed}
}

// provider builds the scanProvider the batch's replays consume. It
// serves a replayed query's task registry from its group's fused scan
// when — and only when — every requested task key was computed there;
// anything else (view-rewritten plans, planning mispredictions) falls
// back to a real scan in the replay. The scan's row/kernel cost is
// attributed to the first member that consumes it.
func (p *batchPlan) provider() scanProvider {
	byFp := map[string]*batchGroup{}
	for _, g := range p.groups {
		if g.gr != nil {
			byFp[g.dp.Key.String()] = g
		}
	}
	return func(dp *exec.DataPlan, reg *exec.TaskRegistry) (*exec.GroupResult, bool) {
		g, ok := byFp[dp.Key.String()]
		if !ok {
			return nil, false
		}
		src := g.gr
		vals := make([][]float64, reg.Len())
		for i, key := range reg.Keys() {
			j, ok := g.reg.Index(key)
			if !ok {
				return nil, false
			}
			vals[i] = src.Values[j]
		}
		// Fresh GroupResult per consumer: members append cached arrays to
		// Values during assembly, so the outer slice must not be shared.
		// The group structure and value arrays are shared read-only —
		// exactly like cached arrays are.
		out := &exec.GroupResult{
			NumGroups:  src.NumGroups,
			Keys:       src.Keys,
			KeyNames:   src.KeyNames,
			KeyColumns: src.KeyColumns,
			Values:     vals,
		}
		if !g.rowsGiven {
			out.Rows = src.Rows
			out.Kernels = src.Kernels
			g.rowsGiven = true
		}
		return out, true
	}
}

// QueryBatch runs a batch of queries as one submission, sharing work
// across them: all queries are canonicalized together, their aggregation
// states unified pairwise via Theorem 4.1 sharing among the in-flight
// batch (not just against the cache), the surviving states grouped by
// data fingerprint, and one fused scan per group computes every group's
// union — so N overlapping queries cost far fewer than N scans, and in
// share mode the state cache warms once per batch instead of once per
// query.
//
// Results are positionally aligned with reqs and bit-identical to
// running the same statements sequentially in the same mode: each query
// replays through the ordinary analyzer pipeline — with real cache
// lookups and stores, in batch order — consuming the fused scans through
// a provider; the morsel engine's deterministic merge makes provided
// values indistinguishable from a private scan. The whole batch runs
// against one catalog snapshot (one version of the data) and occupies
// one admission slot. mode governs every query in the batch;
// per-Request modes are ignored. The first failing query aborts the
// batch — it's all results or one error. Batch queries are not trace
// sampled; per-query Stats (wall time, cache hits, rows) are still
// recorded, with the fused scan's rows attributed to the first query
// that consumes it.
func (s *Session) QueryBatch(ctx context.Context, reqs []Request, mode Mode) (_ []*Result, err error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, queued, release, err := s.admitted(ctx, "query")
	if err != nil {
		return nil, err
	}
	defer release()
	defer sealOutcome("batch", &err)

	stmts := make([]*sqlparse.Stmt, len(reqs))
	for i, req := range reqs {
		stmt, perr := sqlparse.Parse(req.SQL)
		if perr != nil {
			return nil, fmt.Errorf("batch query %d: %w: %w", i, errs.ErrParse, perr)
		}
		stmts[i] = stmt
	}

	// One snapshot pair for planning, fused scans and every replay: the
	// whole batch sees one version of every table and one cache, so
	// concurrent appends never split a batch across data versions.
	qc := &queryCtx{cat: s.cat.Snapshot(), cache: s.stateCache()}
	plan, err := s.planBatch(ctx, qc, stmts, mode)
	if err != nil {
		return nil, err
	}

	// Run the fused scans: one pass per fingerprint group computes the
	// group's entire task union. On a sharded session, SUDAF-mode groups
	// scatter-gather instead — g.compute is index-aligned with the task
	// registry, so the merged partials slot straight into g.gr.
	for _, g := range plan.groups {
		if g.reg.Len() == 0 {
			continue
		}
		if set := g.scatterSet(s, mode); set != nil {
			states := make([]canonical.State, len(g.compute))
			for i, cand := range g.compute {
				states[i] = cand.st
			}
			gr, serr := s.scatter(ctx, qc, stmts[g.members[0]], set, states)
			if serr != nil {
				return nil, serr
			}
			g.gr = gr
			continue
		}
		gr, rerr := s.eng.RunSpecs(ctx, g.dp, g.reg)
		if rerr != nil {
			return nil, rerr
		}
		g.gr = gr
	}

	// Sequential replay: each query runs through the unchanged pipeline
	// against the shared snapshots, with the provider standing in for
	// its scan. Cache lookups and stores happen here, in batch order —
	// the cache evolves exactly as under sequential execution.
	provider := plan.provider()
	out := make([]*Result, len(reqs))
	for i, m := range plan.members {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rqc := &queryCtx{cat: qc.cat, cache: qc.cache}
		if !m.solo {
			rqc.provide = provider
		}
		done := s.track(queued)
		res, rerr := s.runStmt(ctx, rqc, m.stmt, mode, 0)
		done(res, rerr)
		if rerr != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, rerr)
		}
		out[i] = res
	}
	return out, nil
}
