package exec

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/errs"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

func TestLimitByKeys(t *testing.T) {
	kc := storage.NewColumn("g", storage.KindInt)
	gr := &GroupResult{NumGroups: 5, KeyNames: []string{"g"}}
	for i := 0; i < 5; i++ {
		gr.Keys = append(gr.Keys, GroupKey{int64(4 - i), 0}) // reverse order
		kc.AppendInt(int64(4 - i))
	}
	gr.KeyColumns = []*storage.Column{kc}
	gr.Values = [][]float64{{40, 30, 20, 10, 0}}

	stmt, _ := sqlparse.Parse("SELECT g, sum(x) FROM t GROUP BY g ORDER BY g LIMIT 2")
	out, ok := limitByKeys(stmt, gr)
	if !ok {
		t.Fatal("limitByKeys should apply")
	}
	if out.NumGroups != 2 {
		t.Fatalf("groups = %d", out.NumGroups)
	}
	// Smallest keys first: g=0 (value 0), g=1 (value 10).
	if out.Keys[0][0] != 0 || out.Keys[1][0] != 1 {
		t.Fatalf("keys: %v", out.Keys)
	}
	if out.Values[0][0] != 0 || out.Values[0][1] != 10 {
		t.Fatalf("values: %v", out.Values[0])
	}

	// DESC order.
	stmtD, _ := sqlparse.Parse("SELECT g FROM t GROUP BY g ORDER BY g DESC LIMIT 1")
	outD, ok := limitByKeys(stmtD, gr)
	if !ok || outD.Keys[0][0] != 4 {
		t.Fatalf("desc: %v %v", outD, ok)
	}

	// ORDER BY a non-key column disables the fast path.
	stmt2, _ := sqlparse.Parse("SELECT g, sum(x) s FROM t GROUP BY g ORDER BY s LIMIT 2")
	if _, ok := limitByKeys(stmt2, gr); ok {
		t.Fatal("non-key ORDER BY must not pre-limit")
	}
	// No LIMIT: no fast path.
	stmt3, _ := sqlparse.Parse("SELECT g FROM t GROUP BY g ORDER BY g")
	if _, ok := limitByKeys(stmt3, gr); ok {
		t.Fatal("no LIMIT must not pre-limit")
	}
}

func TestPrepareDataErrors(t *testing.T) {
	cat := testCatalog(t, 10)
	e := NewEngine(cat, 1)
	bad := []string{
		"SELECT sum(price) FROM sales, stores GROUP BY price",                           // float group key, and disconnected join
		"SELECT sum(price) FROM missing",                                                // unknown table
		"SELECT sum(price) FROM sales WHERE nope = 1",                                   // unknown column
		"SELECT sum(price) FROM sales, stores WHERE price > st_id",                      // cross-table non-equi
		"SELECT sum(price) FROM sales WHERE st_state = 'TN'",                            // column from unjoined table
		"SELECT sum(price) FROM sales, stores WHERE s_store = st_id AND st_state > 'A'", // string range compare
	}
	for _, q := range bad {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			continue
		}
		if dp, err := e.PrepareData(stmt); err == nil {
			// Some failures surface at execution; force it.
			if _, err2 := e.RunSpecs(context.Background(), dp, NewTaskRegistry()); err2 == nil {
				t.Errorf("%q should fail", q)
			}
		}
	}
}

// countTask builds a count() state task.
func countTask(b Binder) (*StateTask, error) {
	return NewStateTask(canonical.State{Op: canonical.OpCount}, b)
}

func TestDisconnectedJoinFails(t *testing.T) {
	cat := testCatalog(t, 10)
	e := NewEngine(cat, 1)
	stmt, _ := sqlparse.Parse("SELECT count(*) FROM sales, stores")
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTaskRegistry()
	reg.Add("count", func(b Binder) (Task, error) { return countTask(b) })
	if _, err := e.RunSpecs(context.Background(), dp, reg); err == nil {
		t.Error("cartesian product (no join condition) should fail")
	}
}

func TestEmptySelection(t *testing.T) {
	cat := testCatalog(t, 100)
	e := NewEngine(cat, 2)
	res := runBuiltins(t, e, "SELECT count(*), sum(price) FROM sales WHERE price > 1e9")
	// Grand aggregate over zero rows: one group, count 0.
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Table.Cols[0].F[0] != 0 {
		t.Errorf("count = %v", res.Table.Cols[0].F[0])
	}
	// Grouped aggregate over zero rows: zero groups.
	res2 := runBuiltins(t, e, "SELECT s_item, count(*) FROM sales WHERE price > 1e9 GROUP BY s_item")
	if res2.Table.NumRows() != 0 {
		t.Fatalf("grouped rows = %d", res2.Table.NumRows())
	}
}

func TestStringGroupKey(t *testing.T) {
	cat := testCatalog(t, 3000)
	e := NewEngine(cat, 3)
	res := runBuiltins(t, e,
		`SELECT st_state, count(*) FROM sales, stores
		 WHERE s_store = st_id GROUP BY st_state ORDER BY st_state`)
	if res.Table.NumRows() != 3 { // TN, CA, NY
		t.Fatalf("states = %d", res.Table.NumRows())
	}
	if res.Table.Cols[0].Kind != storage.KindString {
		t.Fatal("string key column lost its type")
	}
	prev := ""
	total := 0.0
	for i := 0; i < res.Table.NumRows(); i++ {
		cur := res.Table.Cols[0].StringAt(i)
		if cur <= prev {
			t.Errorf("ORDER BY on string key violated: %q after %q", cur, prev)
		}
		prev = cur
		total += res.Table.Cols[1].F[i]
	}
	if total != 3000 {
		t.Errorf("counts sum to %v", total)
	}
}

func TestTaskRegistryDedup(t *testing.T) {
	reg := NewTaskRegistry()
	mk := func(b Binder) (Task, error) { return countTask(b) }
	i1 := reg.Add("k1", mk)
	i2 := reg.Add("k2", mk)
	i3 := reg.Add("k1", mk)
	if i1 != i3 || i1 == i2 || reg.Len() != 2 {
		t.Fatalf("dedup broken: %d %d %d, len %d", i1, i2, i3, reg.Len())
	}
	if reg.Keys()[0] != "k1" || reg.Keys()[1] != "k2" {
		t.Fatalf("keys: %v", reg.Keys())
	}
}

// TestProjectionSharedByGroupedAndWindowed runs one select list — a bare
// string name, a bare numeric name, a bare aggregate and agg/agg + name —
// through both callers of the shared projection: grouped (names are group
// keys) and windowed (names are table columns read at each emit row).
// Fed the same values they must build the same table, count the same
// numeric faults under the permissive policy, and reject the same output
// row under the strict one.
func TestProjectionSharedByGroupedAndWindowed(t *testing.T) {
	stmt, err := sqlparse.Parse("SELECT region, k, __agg0 total, __agg0/__agg1 + k ratio FROM t GROUP BY region, k")
	if err != nil {
		t.Fatal(err)
	}
	vals := [][]float64{{10, 20, 30, 40}, {4, 0, 5, 8}} // 20/0: +Inf in output row 1
	spec := func(pol NumericPolicy) OutputSpec {
		return OutputSpec{
			Items: stmt.Select,
			Finishers: []Finisher{
				func(v [][]float64, g int) float64 { return v[0][g] },
				func(v [][]float64, g int) float64 { return v[1][g] },
			},
			Labels:  []string{"sum(x)", "count()"},
			Numeric: pol,
		}
	}
	regions, ks := []string{"north", "south", "north", "east"}, []int64{7, -3, 11, 2}

	// Grouped: one group per output row, keyed by (region, k).
	region, k := storage.NewColumn("region", storage.KindString), storage.NewColumn("k", storage.KindInt)
	gr := &GroupResult{NumGroups: 4, KeyNames: []string{"region", "k"}, KeyColumns: []*storage.Column{region, k}, Values: vals}
	for g := range ks {
		region.AppendString(regions[g])
		k.AppendInt(ks[g])
		gr.Keys = append(gr.Keys, GroupKey{int64(region.Codes[g]), ks[g]})
	}
	// Windowed: the same names as table columns, emit rows 1, 3, 5, 7 of
	// an 8-row table whose other rows hold values that must not show.
	tblRegion, tblK := storage.NewColumn("region", storage.KindString), storage.NewColumn("k", storage.KindInt)
	var emit []int
	for g := range ks {
		tblRegion.AppendString("nowhere")
		tblK.AppendInt(-999)
		tblRegion.AppendString(regions[g])
		tblK.AppendInt(ks[g])
		emit = append(emit, 2*g+1)
	}
	tbl := storage.NewTable("t", tblRegion, tblK)

	for _, pol := range []NumericPolicy{NumericPermissive, NumericStrict} {
		grouped, gerr := BuildOutput(context.Background(), stmt, nil, gr, spec(pol))
		windowed, werr := BuildWindowOutput(context.Background(), spec(pol), tbl, emit, vals)
		if pol == NumericStrict {
			for _, err := range []error{gerr, werr} {
				if !errors.Is(err, errs.ErrNumericFault) || !strings.Contains(err.Error(), `"ratio"`) || !strings.Contains(err.Error(), "row 1") {
					t.Errorf("strict: got %v, want a numeric fault naming item ratio and output row 1", err)
				}
			}
			continue
		}
		if gerr != nil || werr != nil {
			t.Fatalf("permissive: grouped %v, windowed %v", gerr, werr)
		}
		if grouped.NumericFaults != 1 || windowed.NumericFaults != 1 {
			t.Errorf("numeric faults: grouped %d, windowed %d, want 1 each", grouped.NumericFaults, windowed.NumericFaults)
		}
		var gcsv, wcsv strings.Builder
		if err := grouped.Table.WriteCSV(&gcsv); err != nil {
			t.Fatal(err)
		}
		if err := windowed.Table.WriteCSV(&wcsv); err != nil {
			t.Fatal(err)
		}
		if gcsv.String() != wcsv.String() {
			t.Errorf("grouped and windowed output differ:\n%s---\n%s", gcsv.String(), wcsv.String())
		}
		want := []float64{10.0/4 + 7, math.Inf(1), 30.0/5 + 11, 40.0/8 + 2}
		for g, w := range want {
			if got := grouped.Table.Col("ratio").F[g]; got != w {
				t.Errorf("ratio[%d] = %v, want %v", g, got, w)
			}
		}
		if c := grouped.Table.Col("region"); c.Kind != storage.KindString || c.StringAt(3) != "east" {
			t.Errorf("bare string key did not pass through typed: %v", c)
		}
		if got := grouped.Table.Col("total").F; len(got) != 4 || got[2] != 30 {
			t.Errorf("bare aggregate column = %v", got)
		}
	}

	// A name neither caller can resolve is a compile-time error, not a
	// per-row one — it is reported even when there are no output rows.
	bad, _ := sqlparse.Parse("SELECT __agg0 + nope FROM t")
	sp := spec(NumericPermissive)
	sp.Items = bad.Select
	if _, err := BuildWindowOutput(context.Background(), sp, tbl, nil, vals); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown name: got %v", err)
	}
}
