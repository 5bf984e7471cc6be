package rewrite

import (
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/sqlparse"
)

// tables lists table versions at epoch 1 (roll-up matching ignores
// versions).
func tables(names ...string) []exec.TableVersion {
	out := make([]exec.TableVersion, len(names))
	for i, n := range names {
		out[i] = exec.TableVersion{Name: n, Epoch: 1}
	}
	return out
}

// join builds the normalized equi-join lt.lc=rt.rc.
func join(lt, lc, rt, rc string) exec.JoinPair {
	return exec.JoinPair{L: exec.ColumnRef{Table: lt, Column: lc}, R: exec.ColumnRef{Table: rt, Column: rc}}
}

// filter builds one pushed-down conjunct from its text.
func filter(table, text string) exec.Filter {
	return exec.Filter{Table: table, Pred: reparse(text), Text: text}
}

// reparse turns a normalized predicate string back into a Pred via a
// throwaway statement.
func reparse(p string) sqlparse.Pred {
	stmt, err := sqlparse.Parse("SELECT a FROM t WHERE " + p)
	if err != nil {
		panic(p + ": " + err.Error())
	}
	return stmt.Where
}

func st(op canonical.AggOp, col string) canonical.State {
	if op == canonical.OpCount {
		return canonical.State{Op: op, Base: &expr.Num{Val: 1}}
	}
	return canonical.State{Op: op, F: scalar.IdentityChain(), Base: &expr.Var{Name: col}}
}

// testView is the V1 of the paper: grouped by (ss_item_sk, d_year) over
// store_sales ⋈ store ⋈ date_dim with the TN filter.
func testView() *View {
	states := []canonical.State{
		st(canonical.OpCount, ""),
		st(canonical.OpSum, "ss_list_price"),
	}
	cols := map[string]string{}
	for i, s := range states {
		cols[s.Key()] = "s" + string(rune('1'+i))
	}
	return &View{
		Name: "v1",
		Key: exec.DataKey{
			Tables: tables("date_dim", "store", "store_sales"),
			Joins: []exec.JoinPair{
				join("date_dim", "d_date_sk", "store_sales", "ss_sold_date_sk"),
				join("store", "s_store_sk", "store_sales", "ss_store_sk"),
			},
			Filters: []exec.Filter{filter("store", "s_state='TN'")},
			GroupBy: []string{"ss_item_sk", "d_year"},
		},
		States:    states,
		StateCols: cols,
	}
}

// ownerFor maps the test schema's columns to tables.
func ownerFor(col string) string {
	switch {
	case strings.HasPrefix(col, "ss_"):
		return "store_sales"
	case strings.HasPrefix(col, "s_"):
		return "store"
	case strings.HasPrefix(col, "d_"):
		return "date_dim"
	case strings.HasPrefix(col, "i_"):
		return "item"
	}
	return ""
}

func q3Key() *exec.DataKey {
	return &exec.DataKey{
		Tables: tables("date_dim", "item", "store", "store_sales"),
		Joins: []exec.JoinPair{
			join("date_dim", "d_date_sk", "store_sales", "ss_sold_date_sk"),
			join("item", "i_item_sk", "store_sales", "ss_item_sk"),
			join("store", "s_store_sk", "store_sales", "ss_store_sk"),
		},
		Filters: []exec.Filter{
			filter("date_dim", "d_year>=2000"),
			filter("item", "i_category='Sports'"),
			filter("store", "s_state='TN'"),
		},
		GroupBy: []string{"d_year"},
	}
}

func TestRollupQ3(t *testing.T) {
	v := testView()
	states := []canonical.State{st(canonical.OpCount, ""), st(canonical.OpSum, "ss_list_price")}
	r, reason := TryRollup(q3Key(), states, v, ownerFor)
	if r == nil {
		t.Fatalf("rollup rejected: %s", reason)
	}
	// FROM must be view + item.
	if len(r.Stmt.From) != 2 || r.Stmt.From[0].Name != "v1" || r.Stmt.From[1].Name != "item" {
		t.Fatalf("FROM: %+v", r.Stmt.From)
	}
	if len(r.Stmt.GroupBy) != 1 || r.Stmt.GroupBy[0] != "d_year" {
		t.Fatalf("GROUP BY: %v", r.Stmt.GroupBy)
	}
	// Where must include the item join and the two extra filters.
	ws := sqlparse.PredString(r.Stmt.Where)
	for _, want := range []string{"i_item_sk", "i_category", "d_year"} {
		if !strings.Contains(ws, want) {
			t.Errorf("WHERE %q missing %s", ws, want)
		}
	}
	if len(r.StateCol) != 2 {
		t.Errorf("StateCol: %v", r.StateCol)
	}
}

func TestRollupRejections(t *testing.T) {
	v := testView()
	okStates := []canonical.State{st(canonical.OpSum, "ss_list_price")}

	// Missing view table in the query.
	q := q3Key()
	q.Tables = tables("item", "store_sales")
	if r, _ := TryRollup(q, okStates, v, ownerFor); r != nil {
		t.Error("should reject when view tables missing")
	}

	// Query lacks a view join.
	q = q3Key()
	q.Joins = q.Joins[1:]
	if r, _ := TryRollup(q, okStates, v, ownerFor); r != nil {
		t.Error("should reject when a view join is absent")
	}

	// Query lacks the view's filter.
	q = q3Key()
	q.Filters = q.Filters[:2]
	if r, _ := TryRollup(q, okStates, v, ownerFor); r != nil {
		t.Error("should reject when view filter absent")
	}

	// Extra filter on a non-grouped view column.
	q = q3Key()
	q.Filters = append(q.Filters, filter("store_sales", "ss_quantity>5"))
	if r, _ := TryRollup(q, okStates, v, ownerFor); r != nil {
		t.Error("should reject filter on non-grouped view column")
	}

	// Group-by below the view's granularity.
	q = q3Key()
	q.GroupBy = []string{"ss_store_sk"}
	if r, _ := TryRollup(q, okStates, v, ownerFor); r != nil {
		t.Error("should reject finer grouping")
	}

	// State not in the view.
	q = q3Key()
	missing := []canonical.State{st(canonical.OpSum, "ss_sales_price")}
	if r, _ := TryRollup(q, missing, v, ownerFor); r != nil {
		t.Error("should reject missing state")
	}
}

func TestRollupState(t *testing.T) {
	cnt := st(canonical.OpCount, "")
	rolled := RollupState(cnt, "s1")
	if rolled.Op != canonical.OpSum {
		t.Errorf("count must roll up by summation, got %v", rolled.Op)
	}
	mn := st(canonical.OpMin, "x")
	rolled = RollupState(mn, "s2")
	if rolled.Op != canonical.OpMin {
		t.Errorf("min must stay min, got %v", rolled.Op)
	}
	if v, ok := rolled.Base.(*expr.Var); !ok || v.Name != "s2" {
		t.Errorf("base: %v", rolled.Base)
	}
}
