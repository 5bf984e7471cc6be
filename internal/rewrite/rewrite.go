// Package rewrite implements aggregate-view rewriting over SUDAF state
// views (Section 2 of the paper, queries Q3 → RQ3'): because SUDAF
// rewrites UDAFs into sum/count-style aggregation states, a materialized
// view holding grouped states can answer a new query by *rolling up* the
// states — joining extra dimension tables, applying extra predicates on
// view output columns, and re-aggregating to a coarser grouping. This is
// the classic rewriting of Cohen, Nutt & Serebrenik restricted to the
// state algebra (sum/count roll up by Σ, min/max by min/max, Π by ×).
package rewrite

import (
	"fmt"

	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// View is a materialized state view: the stored group table plus the
// data key of the query that produced it.
type View struct {
	Name  string
	Table *storage.Table // group-by columns + one float column per state
	Key   exec.DataKey
	// States lists the cached states; StateCols maps state key → column.
	States    []canonical.State
	StateCols map[string]string
}

// Rollup describes how to answer a query from a view: the rewritten
// data part (FROM view + extra tables) and, per requested state, the
// view column to re-aggregate.
type Rollup struct {
	View *View
	// Stmt is the rewritten statement's data part (no select list):
	// FROM view, extra tables; WHERE extra joins/filters; GROUP BY.
	Stmt *sqlparse.Stmt
	// StateCol maps a requested state key to its view column.
	StateCol map[string]string
}

// TryRollup decides whether the query whose data part is q, needing the
// given states, can be answered from view v, and constructs the roll-up
// plan. Table versions play no part here: the caller checks that the view
// is current. colOwner resolves a column name to its base table. It
// returns (nil, reason) when rewriting is not possible.
func TryRollup(q *exec.DataKey, states []canonical.State, v *View, colOwner func(string) string) (*Rollup, string) {
	vk := &v.Key
	// 1. The view's tables must all appear in the query.
	qTables := map[string]bool{}
	for _, t := range q.Tables {
		qTables[t.Name] = true
	}
	vTables := map[string]bool{}
	for _, t := range vk.Tables {
		if !qTables[t.Name] {
			return nil, fmt.Sprintf("query lacks view table %s", t.Name)
		}
		vTables[t.Name] = true
	}
	var extraTables []string
	for _, t := range q.Tables {
		if !vTables[t.Name] {
			extraTables = append(extraTables, t.Name)
		}
	}

	// 2. Every view join and filter must appear in the query (the view's
	// data is a superset restriction the query also applies). What stays
	// true in qJoins is left for the roll-up to apply.
	qJoins := map[exec.JoinPair]bool{}
	for _, j := range q.Joins {
		qJoins[j] = true
	}
	for _, j := range vk.Joins {
		if !qJoins[j] {
			return nil, fmt.Sprintf("query lacks view join %s", j)
		}
		qJoins[j] = false
	}
	qFilters := map[[2]string]bool{}
	for _, f := range q.Filters {
		qFilters[[2]string{f.Table, f.Text}] = true
	}
	vFilters := map[[2]string]bool{}
	for _, f := range vk.Filters {
		id := [2]string{f.Table, f.Text}
		if !qFilters[id] {
			return nil, fmt.Sprintf("query lacks view filter %s", f.Text)
		}
		vFilters[id] = true
	}

	// Columns available after the roll-up scan: the view's group-by
	// columns plus every column of the extra tables.
	avail := map[string]bool{}
	for _, g := range vk.GroupBy {
		avail[g] = true
	}

	// 3. Remaining query joins must connect through available columns.
	var extraJoins []sqlparse.Pred
	for _, j := range q.Joins {
		if !qJoins[j] {
			continue // enforced by the view, or a duplicate already added
		}
		qJoins[j] = false
		lOK := !vTables[j.L.Table] || avail[j.L.Column]
		rOK := !vTables[j.R.Table] || avail[j.R.Column]
		if !lOK || !rOK {
			return nil, fmt.Sprintf("join %s needs a non-grouped view column", j)
		}
		extraJoins = append(extraJoins, &sqlparse.Cmp{
			Op: "=",
			L:  sqlparse.Operand{Col: j.L.Column, IsCol: true},
			R:  sqlparse.Operand{Col: j.R.Column, IsCol: true},
		})
	}

	// 4. Extra query filters must touch only available columns.
	var extraFilters []sqlparse.Pred
	for _, f := range q.Filters {
		if vFilters[[2]string{f.Table, f.Text}] {
			continue // already enforced by the view
		}
		if vTables[f.Table] {
			cols := map[string]bool{}
			sqlparse.PredColumns(f.Pred, cols)
			for c := range cols {
				if !avail[c] {
					return nil, fmt.Sprintf("filter %s needs non-grouped view column %s", f.Text, c)
				}
			}
		}
		extraFilters = append(extraFilters, f.Pred)
	}

	// 5. Query grouping must be at or above the view's granularity:
	// each group-by column is either a view group column or lives in an
	// extra table (joined 1:1 per view group through the extra joins).
	for _, g := range q.GroupBy {
		if avail[g] {
			continue
		}
		if vTables[colOwner(g)] {
			return nil, fmt.Sprintf("group-by column %s not in view grouping", g)
		}
	}

	// 6. Every requested state must be stored and roll-uppable.
	stateCol := map[string]string{}
	for _, st := range states {
		col, ok := v.StateCols[st.Key()]
		if !ok {
			return nil, fmt.Sprintf("view lacks state %s", st.Key())
		}
		switch st.Op {
		case canonical.OpSum, canonical.OpCount, canonical.OpMin, canonical.OpMax, canonical.OpProd:
			stateCol[st.Key()] = col
		default:
			return nil, fmt.Sprintf("state %s is not distributive", st.Key())
		}
	}

	// Assemble the rewritten data part.
	stmt := &sqlparse.Stmt{Limit: -1}
	stmt.From = append(stmt.From, sqlparse.TableRef{Name: v.Name})
	for _, t := range extraTables {
		stmt.From = append(stmt.From, sqlparse.TableRef{Name: t})
	}
	for _, p := range append(extraJoins, extraFilters...) {
		if stmt.Where == nil {
			stmt.Where = p
		} else {
			stmt.Where = &sqlparse.And{L: stmt.Where, R: p}
		}
	}
	stmt.GroupBy = append(stmt.GroupBy, q.GroupBy...)
	return &Rollup{View: v, Stmt: stmt, StateCol: stateCol}, ""
}

// RollupState converts a requested state into the state to compute over
// the view table: count partials roll up by summation, everything else
// keeps its merge operation over the stored column.
func RollupState(st canonical.State, viewCol string) canonical.State {
	op := st.Op
	if op == canonical.OpCount {
		op = canonical.OpSum
	}
	return canonical.State{
		Op:   op,
		F:    scalar.IdentityChain(),
		Base: &expr.Var{Name: viewCol},
	}
}
