package core

import (
	"fmt"
	"strings"

	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/sqlparse"
)

// RewriteSQL renders the SUDAF rewriting of a query as SQL text — the
// RQ1/RQ2 form of the paper's Section 2: a derived table computing the
// partial aggregates with built-in functions, and an outer projection
// applying the terminating functions. The output is what SUDAF would
// send to an underlying system like PostgreSQL or Spark SQL.
func (s *Session) RewriteSQL(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	for _, ref := range stmt.From {
		if ref.Sub != nil {
			return "", fmt.Errorf("RewriteSQL does not support subqueries")
		}
	}
	if !s.hasAggregates(stmt) {
		return "", fmt.Errorf("query has no aggregates to rewrite")
	}

	// Decompose every aggregate call, assigning state columns s1..sk.
	var calls []*expr.Call
	items := make([]sqlparse.SelectItem, len(stmt.Select))
	for i, item := range stmt.Select {
		items[i] = sqlparse.SelectItem{
			Expr:  exec.ExtractAggCalls(item.Expr, s.isAgg, &calls),
			Alias: item.Alias,
		}
	}
	b, err := s.bindCalls(calls, nil, nil)
	if err != nil {
		return "", err
	}
	states := b.states
	callT := make([]expr.Node, len(calls))
	for ci, bc := range b.calls {
		// Remap the form's local s-variables to global state columns.
		remap := map[string]expr.Node{}
		for j, idx := range bc.states {
			remap[canonical.StateVar(j)] = &expr.Var{Name: canonical.StateVar(idx)}
		}
		if bc.form.HardT != nil {
			callT[ci] = &expr.Call{Name: bc.form.Name, Args: stateVarList(bc.form, remap)}
		} else {
			callT[ci] = expr.Simplify(expr.Substitute(bc.form.T, remap))
		}
	}

	// Inner query: group-by columns + states as built-in aggregates.
	var inner strings.Builder
	inner.WriteString("SELECT ")
	var innerItems []string
	innerItems = append(innerItems, stmt.GroupBy...)
	for i, st := range states {
		innerItems = append(innerItems, stateSQL(st)+" "+canonical.StateVar(i))
	}
	inner.WriteString(strings.Join(innerItems, ", "))
	inner.WriteString("\nFROM ")
	var froms []string
	for _, ref := range stmt.From {
		froms = append(froms, ref.Name)
	}
	inner.WriteString(strings.Join(froms, ", "))
	if stmt.Where != nil {
		inner.WriteString("\nWHERE " + sqlparse.PredString(stmt.Where))
	}
	if len(stmt.GroupBy) > 0 {
		inner.WriteString("\nGROUP BY " + strings.Join(stmt.GroupBy, ", "))
	}

	// Outer query: original projections with aggregate calls replaced by
	// terminating expressions over the state columns.
	var outer strings.Builder
	outer.WriteString("SELECT ")
	var outItems []string
	for pos, item := range items {
		e := item.Expr
		for ci := range calls {
			e = expr.Substitute(e, map[string]expr.Node{
				fmt.Sprintf("__agg%d", ci): callT[ci],
			})
		}
		rendered := expr.Simplify(e).String()
		name := item.Alias
		if name == "" {
			name = stmt.Select[pos].OutputName(pos)
		}
		if v, ok := e.(*expr.Var); ok && v.Name == name {
			outItems = append(outItems, name)
		} else {
			outItems = append(outItems, rendered+" "+name)
		}
	}
	outer.WriteString(strings.Join(outItems, ", "))
	outer.WriteString("\nFROM (" + inner.String() + ") TEMP")
	if len(stmt.OrderBy) > 0 {
		var obs []string
		for _, o := range stmt.OrderBy {
			s := o.Col
			if o.Desc {
				s += " DESC"
			}
			obs = append(obs, s)
		}
		outer.WriteString("\nORDER BY " + strings.Join(obs, ", "))
	}
	if stmt.Limit >= 0 {
		fmt.Fprintf(&outer, "\nLIMIT %d", stmt.Limit)
	}
	return outer.String() + ";", nil
}

// stateSQL renders a state as a built-in SQL aggregate over its base.
func stateSQL(st canonical.State) string {
	switch st.Op {
	case canonical.OpCount:
		return "count(*)"
	case canonical.OpMin:
		return "min(" + st.Base.String() + ")"
	case canonical.OpMax:
		return "max(" + st.Base.String() + ")"
	case canonical.OpProd:
		// Standard SQL has no product aggregate; this is the exp/ln/sum
		// spelling SUDAF uses against engines without one.
		return "exp(sum(ln(" + st.F.NormalizeReal().Render(st.Base.String()) + ")))"
	default:
		return "sum(" + st.F.NormalizeReal().Render(st.Base.String()) + ")"
	}
}

// stateVarList renders the remapped state variables of a hardcoded-T
// form, for display purposes.
func stateVarList(form *canonical.Form, remap map[string]expr.Node) []expr.Node {
	out := make([]expr.Node, len(form.States))
	for j := range form.States {
		out[j] = remap[canonical.StateVar(j)]
	}
	return out
}
