package exec

import (
	"context"
	"fmt"
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

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// runStates executes the given states as one aggregation over sql.
func runStates(t testing.TB, e *Engine, sql string, states []canonical.State) *GroupResult {
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
	for i, st := range states {
		st := st
		reg.Add(fmt.Sprintf("%d:%s", i, st.Key()), func(b Binder) (Task, error) {
			return NewStateTask(st, b)
		})
	}
	gr, err := e.RunSpecs(context.Background(), dp, reg)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// assertIdentical demands bit-for-bit equality: same groups, same group
// order, same accumulated values (NaN counts as equal to NaN).
func assertIdentical(t *testing.T, label string, a, b *GroupResult) {
	t.Helper()
	if a.NumGroups != b.NumGroups {
		t.Fatalf("%s: %d vs %d groups", label, a.NumGroups, b.NumGroups)
	}
	for g := 0; g < a.NumGroups; g++ {
		if a.Keys[g] != b.Keys[g] {
			t.Fatalf("%s: group %d key %v vs %v (order must match)", label, g, a.Keys[g], b.Keys[g])
		}
	}
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d vs %d value columns", label, len(a.Values), len(b.Values))
	}
	for v := range a.Values {
		for g := 0; g < a.NumGroups; g++ {
			if !bitsEq(a.Values[v][g], b.Values[v][g]) {
				t.Fatalf("%s: task %d group %d: %v (%#x) vs %v (%#x)", label, v, g,
					a.Values[v][g], math.Float64bits(a.Values[v][g]),
					b.Values[v][g], math.Float64bits(b.Values[v][g]))
			}
		}
	}
}

// kernelStates covers every kernel class over the test star schema:
// count, sum(col) on float and int columns, the sum(col^k) moments,
// sum(colX*colY), min/max, and a generic base with a non-identity chain.
func kernelStates(t *testing.T) []canonical.State {
	t.Helper()
	return []canonical.State{
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		{Op: canonical.OpSum, Base: expr.MustParse("price")},
		{Op: canonical.OpSum, Base: expr.MustParse("s_item")}, // int column → gather path
		{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("price")},
		{Op: canonical.OpSum, F: mustChain(t, "x^3"), Base: expr.MustParse("price")},
		{Op: canonical.OpSum, F: mustChain(t, "x^4"), Base: expr.MustParse("price")},
		{Op: canonical.OpSum, Base: expr.MustParse("price*qty")},
		{Op: canonical.OpMin, Base: expr.MustParse("price")},
		{Op: canonical.OpMax, Base: expr.MustParse("price")},
		{Op: canonical.OpSum, F: mustChain(t, "ln(x+1)"), Base: expr.MustParse("sqrt(price)+qty")},
	}
}

// TestVectorizedMatchesTuple is the batch ≡ tuple differential: the same
// aggregation run with kernels on and off must agree bit for bit, for
// grand aggregates, int keys, packed two-column keys and string keys.
func TestVectorizedMatchesTuple(t *testing.T) {
	cat := testCatalog(t, 20_000)
	states := kernelStates(t)
	for _, sql := range []string{
		"SELECT sum(price) FROM sales",
		"SELECT s_item, sum(price) FROM sales GROUP BY s_item",
		"SELECT s_store, s_item, sum(price) FROM sales GROUP BY s_store, s_item",
		"SELECT st_state, sum(price) FROM sales, stores WHERE s_store = st_id GROUP BY st_state",
	} {
		vec := NewEngine(cat, 4)
		tup := NewEngine(cat, 4)
		tup.SetVectorKernels(false)
		assertIdentical(t, sql, runStates(t, vec, sql, states), runStates(t, tup, sql, states))
	}
}

// TestMorselDeterminism pins the scheduler contract: with multiple
// morsels in flight, any worker count must produce bit-identical results
// — values and group order — because morsel partials merge in morsel
// order, not completion order.
func TestMorselDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3-morsel table")
	}
	rows := 2*MorselRows + 4321 // three morsels, last one ragged
	cat := testCatalog(t, rows)
	states := kernelStates(t)
	sql := "SELECT s_item, sum(price) FROM sales GROUP BY s_item"
	serial := NewEngine(cat, 1)
	want := runStates(t, serial, sql, states)
	for _, workers := range []int{2, 3, 8} {
		e := NewEngine(cat, workers)
		assertIdentical(t, fmt.Sprintf("workers=%d", workers), want, runStates(t, e, sql, states))
	}
	// And the tuple path agrees with all of them.
	tup := NewEngine(cat, 8)
	tup.SetVectorKernels(false)
	assertIdentical(t, "tuple-path", want, runStates(t, tup, sql, states))
}

// advCatalog builds a table whose value column is adversarial for
// min/max/prod: whole groups of NaN, NaN mixed into normal data, ±Inf,
// signed zeros, subnormals, and values near 1 so products stay finite.
// Groups interleave so every batch sees several of them.
func advCatalog(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	adv := storage.NewTable("adv",
		storage.NewColumn("g", storage.KindInt),
		storage.NewColumn("v", storage.KindFloat),
	)
	for i := 0; i < rows; i++ {
		g := i % 8
		var v float64
		switch g {
		case 0:
			v = math.NaN()
		case 1:
			if rng.Intn(3) == 0 {
				v = math.NaN()
			} else {
				v = rng.Float64()*4 - 2
			}
		case 2:
			v = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			v = rng.Float64()*200 - 100
		case 4:
			v = math.Copysign(0, float64(1-2*rng.Intn(2)))
		case 5:
			v = 42.5
		case 6:
			v = 0.999 + rng.Float64()*0.002
		default:
			v = rng.Float64() * 1e-308
		}
		adv.Col("g").AppendInt(int64(g))
		adv.Col("v").AppendFloat(v)
	}
	cat := catalog.New()
	if err := cat.Register(adv); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestVectorizedMatchesTupleAdversarial runs the min/max/prod/sum kernels
// over NaN/±Inf/signed-zero/subnormal data: batch and tuple paths must
// agree bit for bit, under any worker count.
func TestVectorizedMatchesTupleAdversarial(t *testing.T) {
	cat := advCatalog(t, 9_973)
	states := []canonical.State{
		{Op: canonical.OpMin, Base: expr.MustParse("v")},
		{Op: canonical.OpMax, Base: expr.MustParse("v")},
		{Op: canonical.OpProd, Base: expr.MustParse("v")},
		{Op: canonical.OpSum, Base: expr.MustParse("v")},
		{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("v")},
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
	}
	for _, sql := range []string{
		"SELECT g, min(v) FROM adv GROUP BY g",
		"SELECT min(v) FROM adv",
		"SELECT min(v) FROM adv WHERE g > 100", // empty selection → merge identities
	} {
		for _, workers := range []int{1, 4} {
			vec := NewEngine(cat, workers)
			tup := NewEngine(cat, workers)
			tup.SetVectorKernels(false)
			label := fmt.Sprintf("%s workers=%d", sql, workers)
			assertIdentical(t, label, runStates(t, vec, sql, states), runStates(t, tup, sql, states))
		}
	}
}

// TestEmptySelectionIdentities pins the empty-group contract for the
// grand aggregate: zero input rows still yield one group holding each
// op's merge identity (+Inf for min, -Inf for max, 1 for prod, 0 for
// sum/count), on both execution paths.
func TestEmptySelectionIdentities(t *testing.T) {
	cat := advCatalog(t, 64)
	states := []canonical.State{
		{Op: canonical.OpMin, Base: expr.MustParse("v")},
		{Op: canonical.OpMax, Base: expr.MustParse("v")},
		{Op: canonical.OpProd, Base: expr.MustParse("v")},
		{Op: canonical.OpSum, Base: expr.MustParse("v")},
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
	}
	want := []float64{math.Inf(1), math.Inf(-1), 1, 0, 0}
	for _, disable := range []bool{false, true} {
		e := NewEngine(cat, 2)
		e.SetVectorKernels(!disable)
		gr := runStates(t, e, "SELECT min(v) FROM adv WHERE g > 100", states)
		if gr.NumGroups != 1 {
			t.Fatalf("disable=%v: %d groups, want 1", disable, gr.NumGroups)
		}
		for i, w := range want {
			if !bitsEq(gr.Values[i][0], w) {
				t.Errorf("disable=%v state %d: %v, want identity %v", disable, i, gr.Values[i][0], w)
			}
		}
	}
}

// TestKernelSelection checks the canonical-form → kernel classification.
func TestKernelSelection(t *testing.T) {
	cases := []struct {
		st   canonical.State
		want canonical.KernelClass
		pow  int
	}{
		{canonical.State{Op: canonical.OpCount, Base: &expr.Num{Val: 1}}, canonical.KernelCount, 0},
		{canonical.State{Op: canonical.OpSum, Base: expr.MustParse("x")}, canonical.KernelSumCol, 0},
		{canonical.State{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("x")}, canonical.KernelSumPow, 2},
		{canonical.State{Op: canonical.OpSum, F: mustChain(t, "x^4"), Base: expr.MustParse("x")}, canonical.KernelSumPow, 4},
		{canonical.State{Op: canonical.OpSum, Base: expr.MustParse("x*y")}, canonical.KernelSumMul, 0},
		{canonical.State{Op: canonical.OpSum, Base: expr.MustParse("x^3")}, canonical.KernelSumPow, 3},
		{canonical.State{Op: canonical.OpProd, Base: expr.MustParse("x")}, canonical.KernelProdCol, 0},
		{canonical.State{Op: canonical.OpMin, Base: expr.MustParse("x")}, canonical.KernelMinCol, 0},
		{canonical.State{Op: canonical.OpMax, Base: expr.MustParse("x")}, canonical.KernelMaxCol, 0},
		{canonical.State{Op: canonical.OpSum, F: mustChain(t, "ln(x)"), Base: expr.MustParse("x")}, canonical.KernelGeneric, 0},
		{canonical.State{Op: canonical.OpMin, F: mustChain(t, "x^2"), Base: expr.MustParse("x")}, canonical.KernelGeneric, 0},
		{canonical.State{Op: canonical.OpSum, Base: expr.MustParse("x+y")}, canonical.KernelGeneric, 0},
	}
	for i, c := range cases {
		plan := c.st.SelectKernel()
		if plan.Class != c.want || plan.Pow != c.pow {
			t.Errorf("case %d (%s): got %v pow=%d, want %v pow=%d",
				i, c.st.Key(), plan.Class, plan.Pow, c.want, c.pow)
		}
	}
	_ = scalar.Chain{} // keep the import meaningful if cases change
}

// TestScalarFallbackWithoutColumns: a Binder with no physical columns
// (BindFunc) must route every kernel except count() back to the scalar
// path via a nil VecState — never fail task construction.
func TestScalarFallbackWithoutColumns(t *testing.T) {
	bind := BindFunc(func(name string) (Accessor, error) {
		return func(i int32) float64 { return float64(i) }, nil
	})
	sum := canonical.State{Op: canonical.OpSum, Base: expr.MustParse("x")}
	st, err := NewStateTask(sum, bind)
	if err != nil {
		t.Fatal(err)
	}
	if vs := st.NewVecState(); vs != nil {
		t.Error("sum over synthetic binding should decline vectorization")
	}
	cnt := canonical.State{Op: canonical.OpCount, Base: &expr.Num{Val: 1}}
	ct, err := NewStateTask(cnt, bind)
	if err != nil {
		t.Fatal(err)
	}
	if vs := ct.NewVecState(); vs == nil {
		t.Error("count() needs no columns and should stay vectorized")
	}
}
