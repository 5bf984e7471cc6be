package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/expr"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// Differential tests of the direct-addressed keyed steps (DESIGN.md §8):
// every group-id assignment path against the tuple/hash reference, the
// direct-address join table against a nested-loop oracle, and top-K
// selection against the stable full sort.

// keyedTable has one key column (or pair) per assignment path over the
// same adversarial value column:
//
//	k_neg  int in [-300, 300)            1-key dense, negative base
//	k_str  string, 40 values             1-key dictionary codes
//	k_a×k_b int [-3,4)×[0,9)             2-key dense (63 slots)
//	k_wide int in [0, 200000) step 997   1-key hash, and with k_b the
//	                                     packed hash (domain > 2^16)
//	k_far  int around ±2^40              with k_b the generic hash
//
// The last row holds a key of every column seen nowhere else, so with
// more than one morsel a group first appears in the last one.
func keyedTable(rows int) *storage.Table {
	rng := rand.New(rand.NewSource(99))
	t := storage.NewTable("keyed",
		storage.NewColumn("k_neg", storage.KindInt),
		storage.NewColumn("k_str", storage.KindString),
		storage.NewColumn("k_a", storage.KindInt),
		storage.NewColumn("k_b", storage.KindInt),
		storage.NewColumn("k_wide", storage.KindInt),
		storage.NewColumn("k_far", storage.KindInt),
		storage.NewColumn("x", storage.KindFloat),
		storage.NewColumn("iv", storage.KindInt),
	)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324}
	for i := 0; i < rows; i++ {
		last := i == rows-1
		pick := func(n int) int64 {
			if last {
				return int64(n) // one past every other row's range
			}
			return int64(rng.Intn(n))
		}
		t.Col("k_neg").AppendInt(pick(599) - 300)
		t.Col("k_str").AppendString(fmt.Sprintf("s%02d", pick(39)))
		t.Col("k_a").AppendInt(pick(6) - 3)
		t.Col("k_b").AppendInt(pick(8))
		t.Col("k_wide").AppendInt(pick(200) * 997)
		t.Col("k_far").AppendInt((pick(50) - 25) << 40)
		x := 0.5 + rng.Float64()
		if rng.Intn(50) == 0 {
			x = special[rng.Intn(len(special))]
		}
		t.Col("x").AppendFloat(x)
		t.Col("iv").AppendInt(int64(rng.Intn(7)) - 3)
	}
	return t
}

// keyedStates covers count, the fused/in-place float kernels, the
// gathered int kernel, the first-wins compares and the generic filler.
func keyedStates(t testing.TB) []canonical.State {
	return []canonical.State{
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		{Op: canonical.OpSum, Base: expr.MustParse("x")},
		{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("x")},
		{Op: canonical.OpSum, Base: expr.MustParse("iv")},
		{Op: canonical.OpSum, Base: expr.MustParse("x*iv")},
		{Op: canonical.OpProd, Base: expr.MustParse("x")},
		{Op: canonical.OpMin, Base: expr.MustParse("x")},
		{Op: canonical.OpMax, Base: expr.MustParse("x")},
		{Op: canonical.OpSum, F: mustChain(t, "ln(x+1)"), Base: expr.MustParse("abs(x)+iv*iv")},
	}
}

// assignPath names the group-id assignment path a query takes.
func assignPath(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := e.PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := dp.buildRowSet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ka := newKeyAssign(dp, rs, true)
	switch {
	case ka.lookupLen > 0 && ka.ints != nil:
		return "dense-int"
	case ka.lookupLen > 0 && ka.codes != nil:
		return "dense-dict"
	case ka.lookupLen > 0 && len(ka.fns) == 2:
		return "dense-2key"
	case len(ka.fns) == 1:
		return "hash-1key"
	case ka.packable:
		return "hash-packed"
	}
	return "hash-generic"
}

func TestGroupByAssignmentPathsMatchTupleReference(t *testing.T) {
	queries := []struct{ path, sql string }{
		{"dense-int", "SELECT k_neg, sum(x) FROM keyed GROUP BY k_neg"},
		{"dense-dict", "SELECT k_str, sum(x) FROM keyed GROUP BY k_str"},
		{"dense-2key", "SELECT k_a, k_b, sum(x) FROM keyed GROUP BY k_a, k_b"},
		{"hash-1key", "SELECT k_wide, sum(x) FROM keyed GROUP BY k_wide"},
		{"hash-packed", "SELECT k_wide, k_b, sum(x) FROM keyed GROUP BY k_wide, k_b"},
		{"hash-generic", "SELECT k_far, k_b, sum(x) FROM keyed GROUP BY k_far, k_b"},
		// A filter puts a row vector under the same paths.
		{"dense-int", "SELECT k_neg, sum(x) FROM keyed WHERE iv >= 0 GROUP BY k_neg"},
		{"dense-dict", "SELECT k_str, sum(x) FROM keyed WHERE iv >= 0 GROUP BY k_str"},
	}
	sizes := []int{0, 1, BatchSize + 1}
	if !testing.Short() {
		sizes = append(sizes, 2*MorselRows+4321) // three morsels, the last ragged
	}
	for _, rows := range sizes {
		cat := catalog.New()
		if err := cat.Register(keyedTable(rows)); err != nil {
			t.Fatal(err)
		}
		states := keyedStates(t)
		ref := NewEngine(cat, 1)
		ref.SetVectorKernels(false)
		for _, q := range queries {
			if rows > BatchSize { // fewer rows may not span the wide domains
				if got := assignPath(t, ref, q.sql); got != q.path {
					t.Fatalf("rows=%d %q takes path %s, want %s", rows, q.sql, got, q.path)
				}
			}
			want := runStates(t, ref, q.sql, states)
			if rows > 1 && want.NumGroups < 2 {
				t.Fatalf("rows=%d %q: degenerate reference", rows, q.sql)
			}
			for _, workers := range []int{1, 2, 8} {
				got := runStates(t, NewEngine(cat, workers), q.sql, states)
				assertIdentical(t, fmt.Sprintf("rows=%d workers=%d %s", rows, workers, q.sql), want, got)
			}
		}
	}
}

// TestGroupFirstSeenInLastMorsel pins the data shape the differential
// relies on: the last row's keys occur nowhere else, so their group is
// assigned its global id only by the final merge and must come last.
func TestGroupFirstSeenInLastMorsel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3-morsel table")
	}
	cat := catalog.New()
	if err := cat.Register(keyedTable(2*MorselRows + 4321)); err != nil {
		t.Fatal(err)
	}
	gr := runStates(t, NewEngine(cat, 8), "SELECT k_neg, sum(x) FROM keyed GROUP BY k_neg", keyedStates(t)[:1])
	if gr.NumGroups != 600 {
		t.Fatalf("%d groups, want 600", gr.NumGroups)
	}
	if last := gr.Keys[gr.NumGroups-1]; last != (GroupKey{299, 0}) || gr.Values[0][gr.NumGroups-1] != 1 {
		t.Fatalf("last group %v count %v, want key 299 seen once", last, gr.Values[0][gr.NumGroups-1])
	}
}

// ---- join ----

func intTable(name, col string, vals ...int64) (*storage.Table, *storage.Column) {
	c := storage.NewColumn(col, storage.KindInt)
	for _, v := range vals {
		c.AppendInt(v)
	}
	return storage.NewTable(name, c), c
}

// joinPairs runs one hashJoin of every probe row against the selected
// build rows and returns the (probe row, build row) pairs in output order.
func joinPairs(t *testing.T, probe, build []int64, sel rowSel) [][2]int32 {
	t.Helper()
	pt, pc := intTable("p", "pk", probe...)
	bt, bc := intTable("b", "bk", build...)
	rs := &RowSet{n: len(probe), tables: []*storage.Table{pt}}
	if err := rs.hashJoin(context.Background(), 3, pt, pc, bt, bc, sel); err != nil {
		t.Fatal(err)
	}
	if rs.identity() || len(rs.vecs["p"]) != rs.n || len(rs.vecs["b"]) != rs.n {
		t.Fatalf("joined row set: identity=%v n=%d vecs %d/%d", rs.identity(), rs.n, len(rs.vecs["p"]), len(rs.vecs["b"]))
	}
	out := make([][2]int32, rs.n)
	for i := range out {
		out[i] = [2]int32{rs.vecs["p"][i], rs.vecs["b"][i]}
	}
	return out
}

// nestedLoopPairs is the oracle: probe rows in order, each with its
// matching selected build rows in build order.
func nestedLoopPairs(probe, build []int64, sel rowSel) [][2]int32 {
	out := [][2]int32{}
	for i, pk := range probe {
		for j := 0; j < sel.n; j++ {
			if r := physRow(sel.rows, j); build[r] == pk {
				out = append(out, [2]int32{int32(i), r})
			}
		}
	}
	return out
}

func TestDirectAddressJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randKeys := func(n int, lo, span int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = lo + rng.Int63n(span)
		}
		return out
	}
	seq := func(n int, lo int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = lo + int64(i)
		}
		return out
	}
	sparse := []int64{1 << 40, -(1 << 40), 7, 7, 1 << 41}
	cases := []struct {
		name         string
		probe, build []int64
		sel          rowSel
		direct       bool
	}{
		{"unique keys", randKeys(5000, 0, 100), seq(100, 0), rowSel{n: 100}, true},
		{"duplicate build keys", randKeys(5000, 0, 50), randKeys(120, 0, 50), rowSel{n: 120}, true},
		{"probe keys outside the build domain", randKeys(5000, -200, 500), seq(100, 0), rowSel{n: 100}, true},
		{"negative key base", randKeys(5000, -1100, 300), append(seq(200, -1000), -950, -950), rowSel{n: 202}, true},
		{"empty build side", randKeys(100, 0, 10), nil, rowSel{}, false},
		{"filtered build side", randKeys(5000, 0, 100), seq(100, 0), rowSel{rows: []int32{3, 4, 50, 99}, n: 4}, true},
		{"nothing selected", randKeys(100, 0, 10), seq(10, 0), rowSel{rows: []int32{}}, true},
		{"sparse keys stay on the map", append(randKeys(200, 0, 10), sparse...), sparse, rowSel{n: len(sparse)}, false},
		{"extreme probe keys", []int64{math.MinInt64, math.MaxInt64, 0, -1}, seq(10, -5), rowSel{n: 10}, true},
	}
	for _, c := range cases {
		_, bc := intTable("b", "bk", c.build...)
		if jt := buildJoinTable(bc, c.sel); (jt.direct != nil) != c.direct {
			t.Errorf("%s: direct-address table = %v, want %v", c.name, jt.direct != nil, c.direct)
		}
		got, want := joinPairs(t, c.probe, c.build, c.sel), nestedLoopPairs(c.probe, c.build, c.sel)
		if len(got) != len(want) {
			t.Errorf("%s: %d joined rows, want %d", c.name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: row %d = %v, want %v", c.name, i, got[i], want[i])
				break
			}
		}
	}
}

// ---- top-K ----

func TestFirstKMatchesStableSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		distinct := 1 + rng.Intn(6) // few values: many ties
		ic := storage.NewColumn("i", storage.KindInt)
		sc := storage.NewColumn("s", storage.KindString)
		fc := storage.NewColumn("f", storage.KindFloat)
		for r := 0; r < n; r++ {
			ic.AppendInt(int64(rng.Intn(distinct)) - 2)
			sc.AppendString(fmt.Sprintf("v%d", rng.Intn(distinct)))
			fc.AppendFloat(float64(rng.Intn(distinct)) / 2)
		}
		var cols []sortCol
		for _, c := range []*storage.Column{ic, sc, fc} {
			if rng.Intn(2) == 0 {
				cols = append(cols, sortCol{c, rng.Intn(2) == 0})
			}
		}
		rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		less := rowLess(cols)
		full := make([]int, n)
		for i := range full {
			full[i] = i
		}
		sort.SliceStable(full, func(a, b int) bool { return less(full[a], full[b]) })
		for _, k := range []int{0, 1, n / 2, n - 1, n, n + 1} {
			if k < 0 {
				continue
			}
			want := full
			if k < n {
				want = full[:k]
			}
			got := firstK(n, k, less)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d k=%d: %d rows, want %d", trial, n, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d k=%d cols=%d: got %v, want %v", trial, n, k, len(cols), got, want)
				}
			}
		}
	}
}

// TestOrderByIntKeysBeyond2p53 is the regression test for ORDER BY
// comparing int columns through float64: 2^53 and 2^53+1 round to the
// same float, so they tied and kept first-appearance order.
func TestOrderByIntKeysBeyond2p53(t *testing.T) {
	const big = int64(1) << 53
	tbl, _ := intTable("t", "k", big, big+1, big, big+1)
	cat := catalog.New()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, 1)
	for _, c := range []struct {
		sql  string
		want []int64
	}{
		{"SELECT k, count(k) FROM t GROUP BY k ORDER BY k DESC", []int64{big + 1, big}},         // sortLimit
		{"SELECT k, count(k) FROM t GROUP BY k ORDER BY k DESC LIMIT 1", []int64{big + 1}},      // limitByKeys
		{"SELECT k, count(k) c FROM t GROUP BY k ORDER BY c, k DESC LIMIT 1", []int64{big + 1}}, // sortLimit, top-K
	} {
		got := runBuiltins(t, e, c.sql).Table.Col("k").I
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: k = %v, want %v", c.sql, got, c.want)
		}
	}
}
