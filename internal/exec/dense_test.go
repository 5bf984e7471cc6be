package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/expr"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// Property test of the dense key paths (DESIGN.md §8): group ids numbered
// once per scan by the first-appearance pass, morsel partials holding
// every group of the scan, and an aligned ⊕ merge in which a group absent
// from a morsel merges its identity. On a random table, every dense shape
// must agree
//
//   - with its hash twin, the same grouping under keys spread too wide
//     to be dense, run by the same kernels: the hash merge skips absent
//     groups, so any bit an identity merge changed would show, NaN
//     payloads included;
//   - with the tuple-at-a-time reference (refStates), the NaN payloads of
//     sums and products aside: where two NaNs meet, the result's payload
//     is the first operand's, and the compiler orders the operands of a
//     commutative float op as it likes, so a kernel and State.Merge may
//     disagree there. The interpreted UDAF is held to its hash twin
//     alone;
//   - with itself under one, two and eight workers.

// denseRows spans four morsels; the middle two are the gap (see
// denseShapesTable), and a filter keeping 7/8 of the rows leaves its
// second morsel inside the gap too.
const denseRows = 3*MorselRows + 999

// hashSpread scales a dense key into its hash twin: no domain of the
// test spans fewer than 2^16 integers once spread.
const hashSpread = 1_000_003

// denseSpecials are the values that must survive an identity merge
// bitwise: NaNs with non-default payloads (one signaling), ±Inf, −0 and
// subnormals.
var denseSpecials = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0bad),
	math.Float64frombits(0xfff4_0000_0000_0001),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324,
}

// denseShapesTable builds the fact table, one key column per dense shape:
//
//	k_cov    int in [-40, 40)         every key appears within the first
//	                                  morsel: the pass exits early
//	k_last   k_cov, but the last row  the domain [-40, 40] becomes full
//	         holds 40                 on the last row
//	k_hole   k_cov, with 40 for 0     [-40, 40] full but for one slot
//	k_sparse int 3·[0, 300)           an 898-slot domain two thirds empty:
//	                                  the pass reads every row
//	k_str    string, 30 values        dictionary codes
//	k_a×k_b  int [-2, 3)×[0, 7)       two dense keys, 35 slots
//	fk       int [0, 50)              joins dim.d_id
//
// and each key's hash twin h_* (for k_str, its pick times hashSpread),
// which groups the rows the same way.
// Rows [MorselRows, 3·MorselRows) draw every key from the upper half of
// its domain, so the lower half's groups are absent from morsels 1 and 2
// and keep there whatever morsel 0 left them. Rows 10–12 plant a NaN, a
// −Inf and a −0 in the lowest groups of every shape, so some of those
// absent groups hold NaN, −Inf and −0 partials; further specials land at
// random.
func denseShapesTable(rng *rand.Rand) *storage.Table {
	t := storage.NewTable("fact",
		storage.NewColumn("k_cov", storage.KindInt),
		storage.NewColumn("h_cov", storage.KindInt),
		storage.NewColumn("k_last", storage.KindInt),
		storage.NewColumn("h_last", storage.KindInt),
		storage.NewColumn("k_hole", storage.KindInt),
		storage.NewColumn("h_hole", storage.KindInt),
		storage.NewColumn("k_sparse", storage.KindInt),
		storage.NewColumn("h_sparse", storage.KindInt),
		storage.NewColumn("k_str", storage.KindString),
		storage.NewColumn("h_str", storage.KindInt),
		storage.NewColumn("k_a", storage.KindInt),
		storage.NewColumn("h_a", storage.KindInt),
		storage.NewColumn("k_b", storage.KindInt),
		storage.NewColumn("fk", storage.KindInt),
		storage.NewColumn("x", storage.KindFloat),
		storage.NewColumn("iv", storage.KindInt),
	)
	planted := map[int]float64{10: denseSpecials[0], 11: math.Inf(-1), 12: math.Copysign(0, -1)}
	for i := 0; i < denseRows; i++ {
		gap := i >= MorselRows && i < 3*MorselRows
		// pick draws from [0, n), or its upper half in the gap; a planted
		// row takes the (i-10)th lowest value.
		pick := func(n int) int64 {
			if _, ok := planted[i]; ok {
				return int64(i - 10)
			}
			if gap {
				return int64(n/2 + rng.Intn(n-n/2))
			}
			return int64(rng.Intn(n))
		}
		cov, sparse, str, a := pick(80)-40, 3*pick(300), pick(30), pick(5)-2
		t.Col("k_cov").AppendInt(cov)
		t.Col("h_cov").AppendInt(cov * hashSpread)
		last, hole := cov, cov
		if i == denseRows-1 {
			last = 40
		}
		if hole == 0 {
			hole = 40
		}
		t.Col("k_last").AppendInt(last)
		t.Col("h_last").AppendInt(last * hashSpread)
		t.Col("k_hole").AppendInt(hole)
		t.Col("h_hole").AppendInt(hole * hashSpread)
		t.Col("k_sparse").AppendInt(sparse)
		t.Col("h_sparse").AppendInt(sparse * hashSpread)
		t.Col("k_str").AppendString(fmt.Sprintf("s%02d", str))
		t.Col("h_str").AppendInt(str * hashSpread)
		t.Col("k_a").AppendInt(a)
		t.Col("h_a").AppendInt(a * hashSpread)
		t.Col("k_b").AppendInt(pick(7))
		t.Col("fk").AppendInt(pick(50))
		x := 0.5 + rng.Float64()
		if v, ok := planted[i]; ok {
			x = v
		} else if rng.Intn(4096) == 0 {
			x = denseSpecials[rng.Intn(len(denseSpecials))]
		}
		t.Col("x").AppendFloat(x)
		iv := int64(rng.Intn(8)) - 3
		if i == 10 || i == 11 || i == 12 {
			iv = 0 // planted rows pass the filter
		}
		t.Col("iv").AppendInt(iv)
	}
	return t
}

// denseDim is the join's build side: d_id is unique, so the join keeps
// every fact row in fact order behind materialized row vectors, and
// d_grp is a dense key read through the build side's vector.
func denseDim() *storage.Table {
	t := storage.NewTable("dim", storage.NewColumn("d_id", storage.KindInt),
		storage.NewColumn("d_grp", storage.KindInt), storage.NewColumn("h_grp", storage.KindInt))
	for i := 0; i < 50; i++ {
		t.Col("d_id").AppendInt(int64(i))
		t.Col("d_grp").AppendInt(int64(i % 17))
		t.Col("h_grp").AppendInt(int64(i%17) * hashSpread)
	}
	return t
}

// denseStates covers every kernel class: count, sum over a float column
// and over an int column, the three sum-of-powers, sum(x*y), prod, min
// and max over a column, and generic bases under each ⊕.
func denseStates(t testing.TB) []canonical.State {
	return []canonical.State{
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		{Op: canonical.OpSum, Base: expr.MustParse("x")},
		{Op: canonical.OpSum, Base: expr.MustParse("iv")},
		{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("x")},
		{Op: canonical.OpSum, F: mustChain(t, "x^3"), Base: expr.MustParse("x")},
		{Op: canonical.OpSum, F: mustChain(t, "x^4"), Base: expr.MustParse("x")},
		{Op: canonical.OpSum, Base: expr.MustParse("x*iv")},
		{Op: canonical.OpProd, Base: expr.MustParse("x")},
		{Op: canonical.OpMin, Base: expr.MustParse("x")},
		{Op: canonical.OpMax, Base: expr.MustParse("x")},
		{Op: canonical.OpSum, F: mustChain(t, "ln(x+1)"), Base: expr.MustParse("abs(x)+iv*iv")},
		{Op: canonical.OpProd, Base: expr.MustParse("x*iv")},
		{Op: canonical.OpMin, Base: expr.MustParse("x-iv")},
		{Op: canonical.OpMax, Base: expr.MustParse("x*iv")},
	}
}

// runDenseTasks runs the states and, unless form is nil, the form as a
// Baseline-mode interpreted UDAF over x, as a single aggregation.
func runDenseTasks(t *testing.T, e *Engine, sql string, states []canonical.State, form *canonical.Form) *GroupResult {
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
		reg.Add(fmt.Sprintf("%d:%s", i, st.Key()), func(b Binder) (Task, error) { return NewStateTask(st, b) })
	}
	if form != nil {
		call := &expr.Call{Name: form.Name, Args: []expr.Node{&expr.Var{Name: "x"}}}
		reg.Add("naive", func(b Binder) (Task, error) { return NewNaiveUDAFTask(form, call, b.Bind) })
	}
	gr, err := e.RunSpecs(context.Background(), dp, reg)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// assertSameValues demands the same number of groups and, for every task
// of got (a prefix of want's), the same values: the same Float64bits.
func assertSameValues(t *testing.T, label string, want, got *GroupResult) {
	t.Helper()
	if want.NumGroups != got.NumGroups || len(want.Values) < len(got.Values) {
		t.Fatalf("%s: %d groups × %d tasks, want %d × %d", label, got.NumGroups, len(got.Values), want.NumGroups, len(want.Values))
	}
	for v := range got.Values {
		for g := 0; g < want.NumGroups; g++ {
			w, h := want.Values[v][g], got.Values[v][g]
			if math.Float64bits(w) != math.Float64bits(h) {
				t.Fatalf("%s: task %d group %d: %#x, want %#x", label, v, g, math.Float64bits(h), math.Float64bits(w))
			}
		}
	}
}

func TestDenseAssignmentPathsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4-morsel table")
	}
	// The interpreted UDAF costs about a microsecond per row, so it runs
	// on the unfiltered shapes, with two workers only.
	form, err := canonical.Decompose("mix", []string{"x"},
		expr.MustParse("sum(x) + prod(x) + min(x) - max(x)"))
	if err != nil {
		t.Fatal(err)
	}
	states := denseStates(t)
	// A single key over the unfiltered table folds by the key itself
	// once the pass has seen every slot of its domain (FoldKey), and by
	// group ids otherwise: k_last and k_hole sit on either side of that
	// line.
	queries := []struct {
		path, keys, twin, from string
		early                  bool // the pass stops before the last row
		fold                   string
	}{
		{"dense-int", "k_cov", "h_cov", "fact", true, FoldKey},
		{"dense-int", "k_last", "h_last", "fact", false, FoldKey},
		{"dense-int", "k_hole", "h_hole", "fact", false, FoldIDs},
		{"dense-int", "k_sparse", "h_sparse", "fact", false, FoldIDs},
		{"dense-dict", "k_str", "h_str", "fact", true, FoldKey},
		{"dense-2key", "k_a, k_b", "h_a, k_b", "fact", true, FoldIDs},
		{"dense-int", "k_cov", "h_cov", "fact WHERE iv < 4", true, FoldIDs},
		{"dense-int", "k_sparse", "h_sparse", "fact WHERE iv < 4", false, FoldIDs},
		{"dense-int", "k_cov", "h_cov", "fact, dim WHERE fk = d_id", true, FoldIDs},
		{"dense-int", "d_grp", "h_grp", "fact, dim WHERE fk = d_id", true, FoldIDs},
		{"dense-dict", "k_str", "h_str", "fact, dim WHERE fk = d_id", true, FoldIDs},
	}
	sql := func(keys, from string) string {
		return fmt.Sprintf("SELECT %s, sum(x) FROM %s GROUP BY %s", keys, from, keys)
	}
	cat := catalog.New()
	for _, tbl := range []*storage.Table{denseShapesTable(rand.New(rand.NewSource(1))), denseDim()} {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		dense, twin := sql(q.keys, q.from), sql(q.twin, q.from)
		if got := assignPath(t, NewEngine(cat, 1), dense); got != q.path {
			t.Fatalf("%s takes path %s, want %s", dense, got, q.path)
		}
		if got := assignPath(t, NewEngine(cat, 1), twin); !strings.HasPrefix(got, "hash") {
			t.Fatalf("%s takes path %s, want a hash path", twin, got)
		}
		var naive *canonical.Form
		if q.from == "fact" {
			naive = form
		}
		// Two workers run the dense query beside its twin and the
		// reference; one and eight must then agree with two.
		got := runDenseTasks(t, NewEngine(cat, 2), dense, states, naive)
		assertSameValues(t, dense+" against its hash twin", runDenseTasks(t, NewEngine(cat, 2), twin, states, naive), got)
		assertMatchesRef(t, dense+" against the tuple reference", refStates(t, cat, dense, states), got, states)
		if got.Fold != q.fold {
			t.Fatalf("%s: fold %q, want %q", dense, got.Fold, q.fold)
		}
		for _, workers := range []int{1, 8} {
			other := runDenseTasks(t, NewEngine(cat, workers), dense, states, nil)
			if other.Fold != q.fold {
				t.Fatalf("%s workers=%d: fold %q, want %q", dense, workers, other.Fold, q.fold)
			}
			assertSameValues(t, fmt.Sprintf("%s workers=%d", dense, workers), got, other)
			if other.Keys[len(other.Keys)-1] != got.Keys[len(got.Keys)-1] {
				t.Fatalf("%s workers=%d: last group %v, want %v", dense, workers, other.Keys[len(other.Keys)-1], got.Keys[len(got.Keys)-1])
			}
		}
		if early := got.OrderRows < got.Rows; early != q.early || got.OrderRows == 0 {
			t.Fatalf("%s: the pass read %d of %d rows, want early exit %v", dense, got.OrderRows, got.Rows, q.early)
		}
	}
}
