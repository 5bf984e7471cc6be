package exec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// testCatalog builds a small star schema:
//
//	sales(s_store int, s_item int, price float, qty float)
//	stores(st_id int, st_state string)
func testCatalog(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	sales := storage.NewTable("sales",
		storage.NewColumn("s_store", storage.KindInt),
		storage.NewColumn("s_item", storage.KindInt),
		storage.NewColumn("price", storage.KindFloat),
		storage.NewColumn("qty", storage.KindFloat),
	)
	for i := 0; i < rows; i++ {
		sales.Col("s_store").AppendInt(int64(rng.Intn(4)))
		sales.Col("s_item").AppendInt(int64(rng.Intn(10)))
		sales.Col("price").AppendFloat(1 + rng.Float64()*99)
		sales.Col("qty").AppendFloat(float64(1 + rng.Intn(9)))
	}
	stores := storage.NewTable("stores",
		storage.NewColumn("st_id", storage.KindInt),
		storage.NewColumn("st_state", storage.KindString),
	)
	states := []string{"TN", "CA", "TN", "NY"}
	for i := 0; i < 4; i++ {
		stores.Col("st_id").AppendInt(int64(i))
		stores.Col("st_state").AppendString(states[i])
	}
	cat := catalog.New()
	if err := cat.Register(sales); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(stores); err != nil {
		t.Fatal(err)
	}
	return cat
}

// runBuiltins executes a statement with every SQL built-in aggregate in
// its select list run the way each mode runs it: the built-in's
// canonical states as state tasks, deduplicated by key, and its compiled
// terminating function as the finisher.
func runBuiltins(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTaskRegistry()
	spec := OutputSpec{}
	isAgg := func(name string) bool { _, ok := canonical.Builtin(name); return ok }
	for _, item := range stmt.Select {
		var calls []*expr.Call
		rewritten := ExtractAggCalls(item.Expr, isAgg, &calls)
		// Assign placeholders in the global finisher order.
		base := len(spec.Finishers)
		bind := map[string]expr.Node{}
		for ci, call := range calls {
			form, _ := canonical.Builtin(call.Name)
			args := map[string]expr.Node{}
			for i, p := range form.Params {
				args[p] = call.Args[i]
			}
			cols := make([]int, len(form.States))
			for j, st := range form.States {
				if st.Op != canonical.OpCount {
					st.Base = expr.Simplify(expr.Substitute(st.Base, args))
				}
				cols[j] = reg.Add(st.Key(), func(b Binder) (Task, error) { return NewStateTask(st, b) })
			}
			tfn, err := form.CompileT()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, len(cols))
			spec.Finishers = append(spec.Finishers, func(vals [][]float64, g int) float64 {
				for j, c := range cols {
					buf[j] = vals[c][g]
				}
				return tfn(buf)
			})
			bind[placeholderName(ci)] = &expr.Var{Name: placeholderName(base + ci)}
		}
		// ExtractAggCalls numbered placeholders per item from 0; renumber
		// to the global order.
		renumbered := expr.Substitute(rewritten, bind)
		spec.Items = append(spec.Items, sqlparse.SelectItem{Expr: renumbered, Alias: item.Alias})
	}
	gr, err := e.RunSpecs(context.Background(), dp, reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildOutput(context.Background(), stmt, dp, gr, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func placeholderName(i int) string {
	return "__agg" + string(rune('0'+i))
}

func TestGrandAggregate(t *testing.T) {
	cat := testCatalog(t, 1000)
	e := NewEngine(cat, 1)
	res := runBuiltins(t, e, "SELECT sum(price), count(*), min(price), max(price), avg(price) FROM sales")
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	sales, _ := cat.Table("sales")
	var wantSum, wantMin, wantMax float64
	wantMin = math.Inf(1)
	wantMax = math.Inf(-1)
	for _, v := range sales.Col("price").F {
		wantSum += v
		wantMin = math.Min(wantMin, v)
		wantMax = math.Max(wantMax, v)
	}
	got := res.Table.Cols[0].F[0]
	if math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	if res.Table.Cols[1].F[0] != 1000 {
		t.Errorf("count = %v", res.Table.Cols[1].F[0])
	}
	if res.Table.Cols[2].F[0] != wantMin || res.Table.Cols[3].F[0] != wantMax {
		t.Errorf("min/max = %v/%v, want %v/%v",
			res.Table.Cols[2].F[0], res.Table.Cols[3].F[0], wantMin, wantMax)
	}
	if math.Abs(res.Table.Cols[4].F[0]-wantSum/1000) > 1e-9 {
		t.Errorf("avg = %v", res.Table.Cols[4].F[0])
	}
}

func TestGroupByWithJoinAndFilter(t *testing.T) {
	cat := testCatalog(t, 5000)
	e := NewEngine(cat, 1)
	res := runBuiltins(t, e,
		`SELECT s_item, sum(price) FROM sales, stores
		 WHERE s_store = st_id AND st_state = 'TN'
		 GROUP BY s_item ORDER BY s_item`)
	// Reference computation.
	sales, _ := cat.Table("sales")
	want := map[int64]float64{}
	for i := 0; i < sales.NumRows(); i++ {
		st := sales.Col("s_store").I[i]
		if st != 0 && st != 2 { // TN stores
			continue
		}
		want[sales.Col("s_item").I[i]] += sales.Col("price").F[i]
	}
	if res.Table.NumRows() != len(want) {
		t.Fatalf("groups = %d, want %d", res.Table.NumRows(), len(want))
	}
	for i := 0; i < res.Table.NumRows(); i++ {
		item := res.Table.Cols[0].I[i]
		got := res.Table.Cols[1].F[i]
		if math.Abs(got-want[item]) > 1e-6 {
			t.Errorf("item %d: sum = %v, want %v", item, got, want[item])
		}
		if i > 0 && item <= res.Table.Cols[0].I[i-1] {
			t.Errorf("ORDER BY violated at row %d", i)
		}
	}
}

func TestSerialParallelAgree(t *testing.T) {
	cat := testCatalog(t, 20000)
	serial := NewEngine(cat, 1)
	parallel := NewEngine(cat, 8)
	q := `SELECT s_item, sum(price), count(*), avg(qty), stddev(price), min(price), max(qty)
	      FROM sales, stores WHERE s_store = st_id AND st_state != 'CA'
	      GROUP BY s_item ORDER BY s_item`
	r1 := runBuiltins(t, serial, q)
	r2 := runBuiltins(t, parallel, q)
	if r1.Table.NumRows() != r2.Table.NumRows() {
		t.Fatalf("row mismatch: %d vs %d", r1.Table.NumRows(), r2.Table.NumRows())
	}
	for c := range r1.Table.Cols {
		for i := 0; i < r1.Table.NumRows(); i++ {
			a := r1.Table.Cols[c].AsFloat(i)
			b := r2.Table.Cols[c].AsFloat(i)
			if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
				t.Fatalf("col %d row %d: %v vs %v", c, i, a, b)
			}
		}
	}
}

func TestStateTaskMatchesBuiltin(t *testing.T) {
	cat := testCatalog(t, 3000)
	e := NewEngine(cat, 4)
	stmt, _ := sqlparse.Parse("SELECT s_item, sum(price) FROM sales GROUP BY s_item ORDER BY s_item")
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// State task Σ price² and builtin-equivalent check via two runs.
	st := canonical.State{Op: canonical.OpSum,
		F:    mustChain(t, "x^2"),
		Base: expr.MustParse("price")}
	reg := NewTaskRegistry()
	reg.Add(st.Key(), func(b Binder) (Task, error) {
		return NewStateTask(st, b)
	})
	cnt := canonical.State{Op: canonical.OpCount, Base: &expr.Num{Val: 1}}
	reg.Add(cnt.Key(), func(b Binder) (Task, error) {
		return NewStateTask(cnt, b)
	})
	gr, err := e.RunSpecs(context.Background(), dp, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference.
	sales, _ := cat.Table("sales")
	wantSq := map[int64]float64{}
	wantN := map[int64]float64{}
	for i := 0; i < sales.NumRows(); i++ {
		it := sales.Col("s_item").I[i]
		p := sales.Col("price").F[i]
		wantSq[it] += p * p
		wantN[it]++
	}
	for g := 0; g < gr.NumGroups; g++ {
		item := gr.Keys[g][0]
		if math.Abs(gr.Values[0][g]-wantSq[item]) > 1e-6*(1+wantSq[item]) {
			t.Errorf("Σx² for item %d: %v, want %v", item, gr.Values[0][g], wantSq[item])
		}
		if gr.Values[1][g] != wantN[item] {
			t.Errorf("count for item %d: %v, want %v", item, gr.Values[1][g], wantN[item])
		}
	}
}

func mustChain(t testing.TB, body string) scalar.Chain {
	t.Helper()
	form, err := canonical.Decompose("tmp", []string{"x"}, expr.MustParse("sum("+body+")"))
	if err != nil {
		t.Fatal(err)
	}
	return form.States[0].F
}

func TestNaiveUDAFTaskMatchesDirect(t *testing.T) {
	cat := testCatalog(t, 2000)
	e := NewEngine(cat, 4)
	form, err := canonical.Decompose("qm", []string{"x"},
		expr.MustParse("sqrt(sum(x^2)/count())"))
	if err != nil {
		t.Fatal(err)
	}
	stmt, _ := sqlparse.Parse("SELECT s_item, qm(price) FROM sales GROUP BY s_item")
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	call := &expr.Call{Name: "qm", Args: []expr.Node{&expr.Var{Name: "price"}}}
	reg := NewTaskRegistry()
	reg.Add("naive:qm", func(b Binder) (Task, error) {
		return NewNaiveUDAFTask(form, call, b.Bind)
	})
	gr, err := e.RunSpecs(context.Background(), dp, reg)
	if err != nil {
		t.Fatal(err)
	}
	sales, _ := cat.Table("sales")
	sq := map[int64]float64{}
	n := map[int64]float64{}
	for i := 0; i < sales.NumRows(); i++ {
		it := sales.Col("s_item").I[i]
		p := sales.Col("price").F[i]
		sq[it] += p * p
		n[it]++
	}
	for g := 0; g < gr.NumGroups; g++ {
		item := gr.Keys[g][0]
		want := math.Sqrt(sq[item] / n[item])
		if math.Abs(gr.Values[0][g]-want) > 1e-9*(1+want) {
			t.Errorf("qm(%d) = %v, want %v", item, gr.Values[0][g], want)
		}
	}
}

func TestOrPredicate(t *testing.T) {
	cat := testCatalog(t, 2000)
	e := NewEngine(cat, 1)
	res := runBuiltins(t, e,
		`SELECT count(*) FROM sales, stores
		 WHERE s_store = st_id AND (st_state = 'TN' OR st_state = 'NY')`)
	sales, _ := cat.Table("sales")
	want := 0.0
	for _, st := range sales.Col("s_store").I {
		if st == 0 || st == 2 || st == 3 {
			want++
		}
	}
	if got := res.Table.Cols[0].F[0]; got != want {
		t.Errorf("count = %v, want %v", got, want)
	}
}

func TestRunSimpleProjection(t *testing.T) {
	cat := testCatalog(t, 100)
	e := NewEngine(cat, 1)
	stmt, _ := sqlparse.Parse("SELECT s_item, price*qty AS revenue FROM sales WHERE price > 50")
	res, err := e.RunSimple(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	sales, _ := cat.Table("sales")
	want := 0
	for i := 0; i < sales.NumRows(); i++ {
		if sales.Col("price").F[i] > 50 {
			want++
		}
	}
	if res.Table.NumRows() != want {
		t.Fatalf("rows = %d, want %d", res.Table.NumRows(), want)
	}
	if res.Table.Col("revenue") == nil || res.Table.Col("s_item") == nil {
		t.Fatal("missing output columns")
	}
}

func TestLimitAndDesc(t *testing.T) {
	cat := testCatalog(t, 1000)
	e := NewEngine(cat, 1)
	res := runBuiltins(t, e,
		"SELECT s_item, sum(price) s FROM sales GROUP BY s_item ORDER BY s DESC LIMIT 3")
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	s := res.Table.Col("s")
	if s.F[0] < s.F[1] || s.F[1] < s.F[2] {
		t.Errorf("DESC order violated: %v", s.F)
	}
}

func TestFingerprintStability(t *testing.T) {
	cat := testCatalog(t, 10)
	e := NewEngine(cat, 1)
	// Same data part written two ways must fingerprint identically.
	q1, _ := sqlparse.Parse("SELECT sum(price) FROM sales, stores WHERE s_store = st_id AND st_state = 'TN' GROUP BY s_item")
	q2, _ := sqlparse.Parse("SELECT count(*) FROM stores, sales WHERE st_state = 'TN' AND st_id = s_store GROUP BY s_item")
	dp1, err := e.PrepareData(q1)
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := e.PrepareData(q2)
	if err != nil {
		t.Fatal(err)
	}
	if dp1.Key.String() != dp2.Key.String() {
		t.Errorf("fingerprints differ:\n%s\n%s", dp1.Key.String(), dp2.Key.String())
	}
	// Different predicate → different fingerprint.
	q3, _ := sqlparse.Parse("SELECT sum(price) FROM sales, stores WHERE s_store = st_id AND st_state = 'CA' GROUP BY s_item")
	dp3, err := e.PrepareData(q3)
	if err != nil {
		t.Fatal(err)
	}
	if dp3.Key.String() == dp1.Key.String() {
		t.Error("fingerprint should depend on predicates")
	}
}

func TestJoinDuplicateBuildKeys(t *testing.T) {
	// Build side with duplicate keys must expand rows (multimap path).
	dup := storage.NewTable("dup",
		storage.NewColumn("d_id", storage.KindInt),
		storage.NewColumn("d_tag", storage.KindInt),
	)
	for i := 0; i < 3; i++ {
		dup.Col("d_id").AppendInt(1)
		dup.Col("d_tag").AppendInt(int64(i))
	}
	facts := storage.NewTable("facts",
		storage.NewColumn("f_id", storage.KindInt),
		storage.NewColumn("f_v", storage.KindFloat),
	)
	facts.Col("f_id").AppendInt(1)
	facts.Col("f_v").AppendFloat(10)
	facts.Col("f_id").AppendInt(2)
	facts.Col("f_v").AppendFloat(20)
	// Pad facts so it is picked as the fact side.
	for i := 0; i < 10; i++ {
		facts.Col("f_id").AppendInt(99)
		facts.Col("f_v").AppendFloat(0)
	}
	cat := catalog.New()
	if err := cat.Register(dup); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(facts); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, 1)
	res := runBuiltins(t, e, "SELECT count(*), sum(f_v) FROM facts, dup WHERE f_id = d_id")
	if got := res.Table.Cols[0].F[0]; got != 3 {
		t.Errorf("count = %v, want 3 (one fact row × 3 dup rows)", got)
	}
	if got := res.Table.Cols[1].F[0]; got != 30 {
		t.Errorf("sum = %v, want 30", got)
	}
}
