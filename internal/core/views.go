package core

import (
	"context"
	"fmt"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/rewrite"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// Materialize creates a materialized state view from an aggregate query:
// the stored table holds the group-by columns plus one column per
// aggregation state appearing in the query's aggregates (the paper's V1,
// the subquery of RQ1). The view's states are also inserted into the
// state cache, and the view becomes a roll-up rewriting candidate.
func (s *Session) Materialize(name, sql string) error {
	if err := s.beginOp("materialize"); err != nil {
		return err
	}
	defer s.endOp()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	// Serialize against appends: materialization reads base data and
	// records the table versions it reflects; interleaving with an append
	// could seed a view whose maintenance record is already stale.
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	for _, ref := range stmt.From {
		if ref.Sub != nil {
			return fmt.Errorf("materialized views over subqueries are not supported")
		}
	}
	dp, err := s.eng.PrepareData(stmt)
	if err != nil {
		return err
	}
	// Collect the states of every aggregate in the select list.
	var calls []*expr.Call
	for _, item := range stmt.Select {
		exec.ExtractAggCalls(item.Expr, s.isAgg, &calls)
	}
	if len(calls) == 0 {
		return fmt.Errorf("view %s: query has no aggregates", name)
	}
	b, err := s.bindCalls(calls, s.cat, dp.Tables())
	if err != nil {
		return err
	}
	states, positives := b.states, b.positive
	reg := exec.NewTaskRegistry()
	for _, st := range states {
		addStateTask(reg, st, st.Key())
	}
	gr, err := s.eng.RunSpecs(context.Background(), dp, reg)
	if err != nil {
		return err
	}

	// Materialize: key columns + s1..sk state columns.
	tbl := storage.NewTable(name)
	for _, kc := range gr.KeyColumns {
		if err := tbl.AddColumn(kc); err != nil {
			return fmt.Errorf("view %s: %w", name, err)
		}
	}
	stateCols := map[string]string{}
	for i, st := range states {
		colName := fmt.Sprintf("s%d", i+1)
		col := storage.NewColumn(colName, storage.KindFloat)
		col.F = append(col.F, gr.Values[i]...)
		if err := tbl.AddColumn(col); err != nil {
			return fmt.Errorf("view %s: %w", name, err)
		}
		stateCols[st.Key()] = colName
	}
	if err := s.cat.Register(tbl); err != nil {
		return err
	}

	// Cache the states under the view query's fingerprint too. The entry
	// carries a maintenance record like any share-mode insert, so the
	// append path delta-folds it rather than invalidating.
	gt := cache.NewGroupTable(dp.Fingerprint, gr.KeyNames, gr.Keys, gr.KeyColumns)
	gt.Maint = newMaintRec(stmt, dp)
	for i, st := range states {
		_ = gt.AddState(&cache.CachedState{State: st, Vals: gr.Values[i], PositiveInput: positives[i]})
	}
	snap := gt.SnapshotEntry()
	s.stateCache().Put(gt)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.views[name] = &rewrite.View{
		Name:      name,
		Table:     tbl,
		Info:      dp.Info(),
		States:    states,
		StateCols: stateCols,
	}
	s.viewMaints[name] = &viewMaint{
		stmt:      stmt,
		states:    states,
		stateCols: stateCols,
		epochs:    dp.TableEpochs(),
		snap:      snap,
	}
	return nil
}

// DropView removes a materialized view.
func (s *Session) DropView(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.views, name)
	delete(s.viewMaints, name)
	s.cat.Drop(name)
}

// Views lists materialized view names.
func (s *Session) Views() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.views))
	for n := range s.views {
		out = append(out, n)
	}
	return out
}

// tryViews attempts a roll-up rewriting of the query's missing states
// from any registered view, returning the prepared roll-up data plan.
// The views map is snapshotted under the read lock; column resolution
// and planning use the query's catalog view.
func (s *Session) tryViews(qc *queryCtx, dp *exec.DataPlan, missing []*slot) (*exec.DataPlan, *rewrite.Rollup, string) {
	info := dp.Info()
	states := make([]canonical.State, len(missing))
	for i, sl := range missing {
		states[i] = sl.st
	}
	colOwner := func(col string) string {
		t, err := qc.cat.ResolveColumn(col, info.Tables)
		if err != nil {
			return ""
		}
		return t.Name
	}
	s.mu.RLock()
	views := make([]*rewrite.View, 0, len(s.views))
	maints := make(map[string]*viewMaint, len(s.viewMaints))
	for _, v := range s.views {
		views = append(views, v)
	}
	for n, vm := range s.viewMaints {
		maints[n] = vm
	}
	s.mu.RUnlock()
	for _, v := range views {
		// Version check: the view must reflect exactly the base-table
		// versions this query pinned. A query that pinned its snapshot
		// before (or after) an append must not roll up from a view
		// maintained on the other side of it — mixed versions would
		// double- or under-count the delta.
		if vm := maints[v.Name]; vm != nil {
			stale := false
			for tn, ep := range vm.epochs {
				t, err := qc.cat.Table(tn)
				if err != nil || t.Epoch != ep {
					stale = true
					break
				}
			}
			if stale {
				continue
			}
		}
		rollup, reason := rewrite.TryRollup(info, states, v, colOwner)
		if rollup == nil {
			_ = reason
			continue
		}
		// Pin the exact view-table version the version check vouched for:
		// registering it in the query's snapshot shadows any successor the
		// session catalog may publish while this query plans and runs.
		if err := qc.cat.Register(v.Table); err != nil {
			continue
		}
		dpv, err := s.eng.PrepareDataIn(qc.cat, rollup.Stmt)
		if err != nil {
			continue
		}
		return dpv, rollup, v.Name
	}
	return nil, nil, ""
}
