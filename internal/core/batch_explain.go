package core

import (
	"context"
	"fmt"
	"strings"

	"sudaf/internal/errs"
	"sudaf/internal/sqlparse"
)

// BatchExplain is the structured result of Session.BatchExplain: how a
// batch would execute — per-query explanations plus the batch-level
// sharing plan (fingerprint groups, fused-scan task unions, and every
// state's disposition), computed read-only against the live cache.
type BatchExplain struct {
	// Mode the batch is explained for.
	Mode Mode
	// Queries holds each query's own explanation, positionally aligned
	// with the batch (nil for queries EXPLAIN cannot describe, e.g.
	// subquery statements — see Solo).
	Queries []*Explain
	// Groups are the fingerprint groups the batch's queries fuse into.
	Groups []BatchGroupExplain
	// Solo lists queries that execute standalone, with the reason.
	Solo []BatchSoloExplain
	// Scans is the number of fused scans the batch plans (groups whose
	// task union is non-empty); compare against len(Queries).
	Scans int
}

// BatchGroupExplain is one fingerprint group of the batch plan.
type BatchGroupExplain struct {
	// Fingerprint of the shared data part.
	Fingerprint string
	// Members are the batch indices served by this group's fused scan.
	Members []int
	// Tasks is the fused scan's task union, in registration order.
	Tasks []string
	// Shards is the number of shard workers this group's fused scan
	// would scatter-gather across (0 when it runs as one local scan:
	// unsharded engine, baseline mode, or no distributable table).
	Shards int
	// States is every member state's disposition, in planning order.
	States []BatchStateExplain
}

// BatchStateExplain is the disposition of one member state.
type BatchStateExplain struct {
	// Query is the batch index of the member needing the state.
	Query int
	// State is the canonical state key.
	State string
	// Disposition says how the state is served: "computed" (by the fused
	// scan), "batch:fused" (identical state of an earlier member),
	// "batch:derived" (Theorem 4.1 derivation from an in-flight state),
	// or "cache:exact" / "cache:shared" / "cache:sign" (the pre-batch
	// cache already serves it).
	Disposition string
	// Via is the serving state's key, when derived or cache-served.
	Via string
	// Rewrite is the scalar rewriting r with state = r(via), rendered
	// over s (sharing-based dispositions only).
	Rewrite string
}

// BatchSoloExplain marks a query that executes standalone.
type BatchSoloExplain struct {
	Query  int
	Reason string
}

// BatchExplain explains how QueryBatch would execute a batch without
// executing it: each query's canonical decomposition plus the batch
// sharing plan — which queries fuse into which scan, which states the
// in-flight batch derives from each other via Theorem 4.1, and which the
// cache already serves. The probe is read-only: no LRU touches, no
// stats, no derived-state materialization.
func (s *Session) BatchExplain(reqs []Request, mode Mode) (*BatchExplain, error) {
	stmts := make([]*sqlparse.Stmt, len(reqs))
	for i, req := range reqs {
		stmt, err := sqlparse.Parse(req.SQL)
		if err != nil {
			return nil, fmt.Errorf("batch query %d: %w: %w", i, errs.ErrParse, err)
		}
		stmts[i] = stmt
	}
	qc := &queryCtx{cat: s.cat.Snapshot(), cache: s.stateCache()}
	plan, err := s.planBatch(context.Background(), qc, stmts, mode)
	if err != nil {
		return nil, err
	}
	be := &BatchExplain{Mode: mode, Queries: make([]*Explain, len(reqs))}
	for i, m := range plan.members {
		if m.solo {
			be.Solo = append(be.Solo, BatchSoloExplain{Query: i, Reason: m.soloWhy})
		}
		// Per-query explanation, when EXPLAIN supports the statement.
		if ex, err := s.ExplainQuery(reqs[i].SQL, mode); err == nil {
			be.Queries[i] = ex
		}
	}
	for _, g := range plan.groups {
		ge := BatchGroupExplain{
			Fingerprint: g.fp,
			Members:     g.members,
			Tasks:       g.reg.Keys(),
		}
		if s.shards != nil && mode != ModeBaseline && g.reg.Len() > 0 &&
			len(g.compute) == g.reg.Len() && s.shards.pickSet(g.dp) != nil {
			ge.Shards = s.shards.n
		}
		for _, mi := range g.members {
			for _, st := range plan.members[mi].states {
				ge.States = append(ge.States, BatchStateExplain{
					Query:       mi,
					State:       st.Key,
					Disposition: st.Disposition,
					Via:         st.Via,
					Rewrite:     st.Rewrite,
				})
			}
		}
		if len(ge.Tasks) > 0 {
			be.Scans++
		}
		be.Groups = append(be.Groups, ge)
	}
	return be, nil
}

// String renders the batch plan as indented text (the per-query
// explanations are omitted — render those individually).
func (be *BatchExplain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BATCH EXPLAIN (%d queries, mode: %s)\n", len(be.Queries), be.Mode)
	fmt.Fprintf(&b, "fused scans: %d\n", be.Scans)
	for gi, g := range be.Groups {
		fmt.Fprintf(&b, "\ngroup %d: fingerprint %s\n", gi, g.Fingerprint)
		fmt.Fprintf(&b, "  queries: %s\n", joinInts(g.Members))
		fmt.Fprintf(&b, "  fused tasks (%d): %s\n", len(g.Tasks), strings.Join(g.Tasks, ", "))
		if g.Shards > 0 {
			fmt.Fprintf(&b, "  scatter: %d shards\n", g.Shards)
		}
		for _, st := range g.States {
			line := fmt.Sprintf("  q%d %s — %s", st.Query, st.State, st.Disposition)
			if st.Via != "" {
				line += " via " + st.Via
			}
			if st.Rewrite != "" {
				line += fmt.Sprintf(" with r(s) = %s", st.Rewrite)
			}
			b.WriteString(line + "\n")
		}
	}
	for _, so := range be.Solo {
		fmt.Fprintf(&b, "\nq%d executes standalone: %s\n", so.Query, so.Reason)
	}
	return b.String()
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("q%d", x)
	}
	return strings.Join(parts, ", ")
}
