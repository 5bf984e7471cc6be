package exec

import (
	"context"
	"math"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// refStates is the oracle of the kernel differentials: the states of sql
// computed with none of the engine's aggregation code. It shares two
// things with the engine, the joined rows (buildRowSet) and each state's
// per-row value (StateValuer, what window folds read), and computes the
// rest as the association contract (DESIGN.md §8) states it:
//
//   - groups are numbered by first appearance in row order (a keyless
//     query has its one group whatever the rows);
//   - each row ⊕-folds into its group's partial for its MorselRows-row
//     morsel with canonical.State.Merge, in row order;
//   - the morsel partials merge into the identity in morsel order; a
//     group a morsel never saw merges nothing.
func refStates(t testing.TB, cat *catalog.Catalog, sql string, states []canonical.State) *GroupResult {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewEngine(cat, 1).PrepareData(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := dp.buildRowSet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]Accessor, len(states))
	for s, st := range states {
		if vals[s], err = StateValuer(st, rs); err != nil {
			t.Fatal(err)
		}
	}
	gr := &GroupResult{Values: make([][]float64, len(states))}
	ids := map[GroupKey]int{}
	groupOf := func(key GroupKey) int {
		g, ok := ids[key]
		if !ok {
			g = len(gr.Keys)
			ids[key] = g
			gr.Keys = append(gr.Keys, key)
			for s, st := range states {
				gr.Values[s] = append(gr.Values[s], st.MergeIdentity())
			}
		}
		return g
	}
	if len(dp.groupBy) == 0 {
		groupOf(GroupKey{})
	}
	for lo := 0; lo < rs.n; lo += MorselRows {
		morsel := map[int][]float64{} // group → one partial per state
		for i := lo; i < min(lo+MorselRows, rs.n); i++ {
			var key GroupKey
			for c, pc := range dp.groupBy {
				key[c] = refKey(pc.col, rs.vecs[pc.table.Name], i)
			}
			g := groupOf(key)
			p := morsel[g]
			if p == nil {
				p = make([]float64, len(states))
				for s, st := range states {
					p[s] = st.MergeIdentity()
				}
				morsel[g] = p
			}
			for s, st := range states {
				p[s] = st.Merge(p[s], vals[s](int32(i)))
			}
		}
		for g, p := range morsel {
			for s, st := range states {
				gr.Values[s][g] = st.Merge(gr.Values[s][g], p[s])
			}
		}
	}
	gr.NumGroups = len(gr.Keys)
	return gr
}

// refKey is row i's value of a group-by column: an int, a dictionary
// code, or a float truncated, read through the row vector (nil = row i).
func refKey(col *storage.Column, rows []int32, i int) int64 {
	if rows != nil {
		i = int(rows[i])
	}
	switch col.Kind {
	case storage.KindInt:
		return col.I[i]
	case storage.KindString:
		return int64(col.Codes[i])
	}
	return int64(col.F[i])
}

// assertMatchesRef demands ref's groups in ref's order and each state's
// values bit for bit, except that where both values are NaN a sum or a
// product may hold another payload: where two NaNs meet, the payload
// kept is the operand the compiler made first, which can differ between
// a kernel and State.Merge (DESIGN.md §8). got may carry further tasks
// after the states; they are not compared.
func assertMatchesRef(t *testing.T, label string, ref, got *GroupResult, states []canonical.State) {
	t.Helper()
	if got.NumGroups != ref.NumGroups || len(got.Values) < len(states) {
		t.Fatalf("%s: %d groups × %d tasks, reference %d × %d", label, got.NumGroups, len(got.Values), ref.NumGroups, len(states))
	}
	for g := 0; g < ref.NumGroups; g++ {
		if got.Keys[g] != ref.Keys[g] {
			t.Fatalf("%s: group %d key %v, reference %v (order must match)", label, g, got.Keys[g], ref.Keys[g])
		}
	}
	for s, st := range states {
		loose := st.Op == canonical.OpSum || st.Op == canonical.OpProd
		for g := 0; g < ref.NumGroups; g++ {
			w, h := ref.Values[s][g], got.Values[s][g]
			if math.Float64bits(w) != math.Float64bits(h) && !(loose && math.IsNaN(w) && math.IsNaN(h)) {
				t.Fatalf("%s: state %d (%s) group %d: %v (%#x), reference %v (%#x)", label, s, st.Key(), g,
					h, math.Float64bits(h), w, math.Float64bits(w))
			}
		}
	}
}
