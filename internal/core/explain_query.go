package core

import (
	"context"
	"fmt"
	"strings"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/errs"
	"sudaf/internal/sqlparse"
)

// Explain is the structured result of ExplainQuery: the canonical
// decomposition of a query's aggregates and — in share mode — the
// sharing provenance of every aggregation state, probed read-only
// against the live cache. Render it with String, or walk the fields.
type Explain struct {
	// SQL is the explained statement; Mode the mode explained for.
	SQL  string
	Mode Mode
	// Fingerprint identifies the query's data part (tables@epoch, joins,
	// filters, grouping) — the cache key namespace its states live under.
	Fingerprint string
	// Tables (name@epoch), Joins, Filters and GroupBy describe the
	// normalized data part.
	Tables  []string
	Joins   []string
	Filters []string
	GroupBy []string
	// Aggregates describes each aggregate call in selection order.
	Aggregates []ExplainAggregate
	// States lists the deduplicated bound aggregation states the query
	// needs (empty in baseline mode, which has no state decomposition).
	States []ExplainState
	// Rewritten is the RQ1/RQ2 SQL rewriting (empty in baseline mode).
	Rewritten string
	// Window is the OVER-clause provenance for windowed statements: the
	// frame shape and the window-qualified fingerprint its per-emission
	// partials are cached under. Nil for non-windowed queries.
	Window *ExplainWindow
}

// ExplainWindow is a windowed statement's frame provenance.
type ExplainWindow struct {
	// Frame is the OVER clause as written, e.g. "ROWS 9 PRECEDING".
	Frame string
	// Unit is "ROWS" or "EPOCHS"; N the frame parameter; Sliding whether
	// the frame slides per row/epoch (PRECEDING) or tumbles; Size the
	// row/epoch capacity of one frame.
	Unit    string
	N       int
	Sliding bool
	Size    int
	// Fingerprint is the window-qualified cache key namespace (the data
	// fingerprint with the frame appended) the per-emission state vectors
	// live under in share mode.
	Fingerprint string
}

// ExplainAggregate is one aggregate call's decomposition.
type ExplainAggregate struct {
	// Call is the call as written, e.g. "gm(price)".
	Call string
	// Form is the canonical form (F, ⊕, T) it decomposes into; in
	// baseline mode this is empty and Exec says how the call runs.
	Form string
	// Exec describes the baseline execution strategy (baseline only).
	Exec string
	// States indexes into Explain.States: the bound states this call's
	// terminating function reads.
	States []int
	// HardT says, in share mode, how a hardcoded terminating function's
	// output column would be produced: "memoized" (read from the column
	// stored beside the states it was computed from) or "solved" (run per
	// group). Empty for a declarative T, which is never memoized.
	HardT string
}

// ExplainState is one deduplicated bound aggregation state and — in
// share mode — how the cache would serve it.
type ExplainState struct {
	// Index is the state's position (StateVar(Index) = "s<Index+1>").
	Index int
	// Key is the canonical state key, e.g. "prod[x](price)".
	Key string
	// Formula is the state as a built-in SQL aggregate, e.g.
	// "exp(sum(ln(price)))".
	Formula string
	// Positive reports the base expression is provably positive on the
	// current data (column min statistics), which widens sharing.
	Positive bool
	// Hit is the probed cache outcome: "exact", "shared", "sign" or
	// "miss" (empty outside share mode).
	Hit string
	// Matched is the cached state key serving the hit (sharing source
	// for a shared hit).
	Matched string
	// Rewrite is the scalar rewriting r with state = r(matched),
	// rendered over s (shared hits only).
	Rewrite string
	// Conditions are the parameter conditions the sharing decision
	// checked; empty means unconditional ("strong") sharing.
	Conditions []string
	// PositiveOnly reports the rewriting is sound only over positive
	// data (satisfied here, or it would not be a hit).
	PositiveOnly bool
	// Companions are the §5.3 sign-split companion states a "sign" hit
	// reconstructs from.
	Companions []string
	// MissReason explains a miss; empty on hits.
	MissReason string
	// Candidates are the cached state keys under the fingerprint the
	// sharing pass had to work with (misses only, for context).
	Candidates []string
}

// ExplainQuery explains how a statement would execute in the given mode
// without executing it: the normalized data part and fingerprint, each
// aggregate's canonical form (F, ⊕, T), the deduplicated aggregation
// states, the RQ rewriting, and — in share mode — per-state cache
// provenance from a read-only probe (no LRU touches, no stats).
// Subqueries are not supported.
func (s *Session) ExplainQuery(sql string, mode Mode) (*Explain, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errs.ErrParse, err)
	}
	for _, ref := range stmt.From {
		if ref.Sub != nil {
			return nil, fmt.Errorf("EXPLAIN does not support subqueries")
		}
	}
	if err := s.checkAggregates(stmt); err != nil {
		return nil, err
	}

	// The data plan, fingerprints and bound states come from the query
	// pipeline's own resolve and canonicalize phases — what EXPLAIN shows
	// is what execution derives, by construction. EXPLAIN serves Subscribe
	// statements too, so EPOCHS frames are in scope.
	qc := &queryCtx{cat: s.cat.Snapshot(), cache: s.stateCache()}
	ps := &planState{s: s, qc: qc, stmt: stmt, mode: mode, continuous: true}
	if err := ps.planFront(context.Background()); err != nil {
		return nil, err
	}
	key := &ps.dp.Key
	ex := &Explain{
		SQL:         sql,
		Mode:        mode,
		Fingerprint: key.String(),
		GroupBy:     key.GroupBy,
	}
	for _, t := range key.Tables {
		ex.Tables = append(ex.Tables, t.String())
	}
	for _, j := range key.Joins {
		ex.Joins = append(ex.Joins, j.String())
	}
	for _, f := range key.Filters {
		ex.Filters = append(ex.Filters, f.Table+": "+f.Text)
	}
	// Windowed statements cache per-emission state vectors under the
	// frame-qualified key, which is where probes look.
	if spec := stmt.Window; spec != nil {
		ex.Window = &ExplainWindow{
			Frame:       spec.String(),
			Unit:        spec.Unit.String(),
			N:           spec.N,
			Sliding:     spec.Sliding,
			Size:        spec.Size(),
			Fingerprint: ps.key.String(),
		}
	}

	if mode == ModeBaseline {
		for _, call := range ps.calls {
			ea := ExplainAggregate{Call: call.String(), Exec: s.baselineExec(call.Name)}
			ex.Aggregates = append(ex.Aggregates, ea)
		}
		return ex, nil
	}

	for i, sl := range ps.slots {
		es := ExplainState{Index: i, Key: sl.st.Key(), Formula: stateSQL(sl.st), Positive: sl.positive}
		if mode == ModeShare {
			noteProbe(&es, qc.cache, ps.key.String(), sl.st, sl.positive)
		}
		ex.States = append(ex.States, es)
	}
	for ci, bc := range ps.bound.calls {
		ex.Aggregates = append(ex.Aggregates, ExplainAggregate{
			Call: ps.calls[ci].String(), Form: bc.form.String(), States: bc.states,
		})
	}
	if mode == ModeShare {
		for _, ci := range ps.hard {
			bc := ps.bound.calls[ci]
			ex.Aggregates[ci].HardT = "solved"
			if qc.cache.ProbeFinal(ps.key.String(), ps.bound.states, ps.bound.positive, cache.FinalWant{T: bc.form.HardTKey, Src: bc.states}) {
				ex.Aggregates[ci].HardT = "memoized"
			}
		}
	}
	if len(ps.calls) > 0 {
		if rw, err := s.RewriteSQL(sql); err == nil {
			ex.Rewritten = rw
		}
	}
	return ex, nil
}

// noteProbe copies a cache probe's provenance onto an explain state. A
// miss also lists the healthy states cached under the fingerprint, from
// their own call: the list verifies the whole entry, which a probe that
// only predicts serving (batch planning) must not pay for.
func noteProbe(es *ExplainState, c *cache.Cache, fp string, st canonical.State, positive bool) {
	pr := c.Probe(fp, st, positive)
	es.Hit = pr.Kind.String()
	es.Matched = pr.Matched
	es.Rewrite = pr.Rewrite
	es.Conditions = pr.Conditions
	es.PositiveOnly = pr.PositiveOnly
	es.Companions = pr.Companions
	if pr.Kind != cache.HitNone {
		return
	}
	keys, entry := c.Candidates(fp)
	switch {
	case !entry:
		es.MissReason = "no cached entry under this data fingerprint"
	case len(keys) == 0:
		es.MissReason = "cache entry holds no healthy states"
	default:
		es.MissReason = "no cached state is exact, Theorem 4.1-shareable, or sign-split reconstructible"
		es.Candidates = keys
	}
}

// baselineExec describes how the baseline system runs an aggregate.
func (s *Session) baselineExec(name string) string {
	if _, ok := canonical.Builtin(name); ok {
		return "native built-in aggregate loop"
	}
	if form, ok := s.UDAF(name); ok && form.HardT != nil {
		return "native state loops + hardcoded terminating function"
	}
	return "hardcoded UDAF: per-tuple interpreted accumulator"
}

// String renders the explanation as indented text — the format
// documented in docs/OBSERVABILITY.md and pinned by the golden tests.
func (ex *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s\n", ex.SQL)
	fmt.Fprintf(&b, "mode: %s\n", ex.Mode)
	b.WriteString("\ndata:\n")
	fmt.Fprintf(&b, "  tables:      %s\n", strings.Join(ex.Tables, ", "))
	if len(ex.Joins) > 0 {
		fmt.Fprintf(&b, "  joins:       %s\n", strings.Join(ex.Joins, ", "))
	}
	if len(ex.Filters) > 0 {
		fmt.Fprintf(&b, "  filters:     %s\n", strings.Join(ex.Filters, "; "))
	}
	if len(ex.GroupBy) > 0 {
		fmt.Fprintf(&b, "  group by:    %s\n", strings.Join(ex.GroupBy, ", "))
	}
	fmt.Fprintf(&b, "  fingerprint: %s\n", ex.Fingerprint)
	if w := ex.Window; w != nil {
		shape := "tumbling"
		if w.Sliding {
			shape = "sliding"
		}
		b.WriteString("\nwindow:\n")
		fmt.Fprintf(&b, "  frame:       %s (%s, size %d %s)\n",
			w.Frame, shape, w.Size, strings.ToLower(w.Unit))
		fmt.Fprintf(&b, "  fingerprint: %s\n", w.Fingerprint)
	}
	if len(ex.Aggregates) > 0 {
		b.WriteString("\naggregates:\n")
		for _, a := range ex.Aggregates {
			if a.Exec != "" {
				fmt.Fprintf(&b, "  %s — %s\n", a.Call, a.Exec)
				continue
			}
			fmt.Fprintf(&b, "  %s\n", a.Form)
			var vars []string
			for _, i := range a.States {
				vars = append(vars, canonical.StateVar(i))
			}
			fmt.Fprintf(&b, "    states: %s\n", strings.Join(vars, ", "))
			if a.HardT != "" {
				fmt.Fprintf(&b, "    T: hardcoded, %s\n", a.HardT)
			}
		}
	}
	if len(ex.States) > 0 {
		b.WriteString("\nstates:\n")
		for _, st := range ex.States {
			pos := ""
			if st.Positive {
				pos = "  [positive data]"
			}
			fmt.Fprintf(&b, "  %s: %s = %s%s\n", canonical.StateVar(st.Index), st.Key, st.Formula, pos)
			if st.Hit != "" {
				b.WriteString("      " + st.provenance() + "\n")
			}
		}
	}
	if ex.Rewritten != "" {
		b.WriteString("\nrewritten SQL (RQ):\n")
		for _, line := range strings.Split(ex.Rewritten, "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}

// provenance renders one state's cache outcome as a sentence.
func (st *ExplainState) provenance() string {
	switch st.Hit {
	case "exact":
		return fmt.Sprintf("cache: exact hit — state %s is cached under this fingerprint", st.Matched)
	case "shared":
		conds := "none (strong sharing)"
		if len(st.Conditions) > 0 {
			conds = strings.Join(st.Conditions, " and ")
		}
		msg := fmt.Sprintf("cache: shared hit — computable from cached %s via r(s) = %s; conditions: %s",
			st.Matched, st.Rewrite, conds)
		if st.PositiveOnly {
			msg += "; requires positive data (satisfied)"
		}
		return msg
	case "sign":
		return fmt.Sprintf("cache: sign-split hit — reconstructible from companions %s (§5.3)",
			strings.Join(st.Companions, ", "))
	case "miss":
		msg := "cache: miss — " + st.MissReason
		if len(st.Candidates) > 0 {
			msg += fmt.Sprintf(" (cached under this fingerprint: %s)", strings.Join(st.Candidates, ", "))
		}
		return msg
	}
	return ""
}
