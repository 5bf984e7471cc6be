package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// The merge property test fabricates per-part folds directly — no engine,
// no scan — and checks the ⊕-merge algebra Append's delta maintenance
// rests on: for ANY assignment of rows to parts and ANY merge order,
// folding the parts into one entry through MergeDelta gives per-group
// values bit-identical to one fold over the whole multiset. Row values
// are small integers plus NaN/±Inf specials, so every ⊕ reduction is
// exact and "identical" means Float64bits-identical up to NaN payload
// (DESIGN.md §8), not within-epsilon.

// mrow is one input row: a group and a value.
type mrow struct {
	g int64
	v float64
}

// mergeStates are the fold shapes under test, one per ⊕ flavour. The F
// chains are empty: F applies per tuple before ⊕ and has no part in the
// merge algebra; distinct bases keep the state keys distinct.
func mergeStates() []canonical.State {
	return []canonical.State{
		st(canonical.OpSum, "a"),
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		st(canonical.OpMin, "b"),
		st(canonical.OpMax, "c"),
		st(canonical.OpProd, "d"),
	}
}

// partFold is one part's per-group fold, groups in first-appearance
// order: what a scan of those rows hands MergeDelta.
type partFold struct {
	keys []GroupKey
	cols []*storage.Column
	vals map[string][]float64
}

func foldRows(states []canonical.State, rows []mrow) partFold {
	p := partFold{cols: []*storage.Column{storage.NewColumn("g", storage.KindInt)}, vals: map[string][]float64{}}
	for _, s := range states {
		p.vals[s.Key()] = []float64{}
	}
	idx := map[int64]int{}
	for _, r := range rows {
		gi, ok := idx[r.g]
		if !ok {
			gi = len(p.keys)
			idx[r.g] = gi
			p.keys = append(p.keys, GroupKey{r.g, 0})
			p.cols[0].AppendInt(r.g)
			for _, s := range states {
				p.vals[s.Key()] = append(p.vals[s.Key()], s.MergeIdentity())
			}
		}
		for _, s := range states {
			v := r.v
			if s.Op == canonical.OpCount {
				v = 1
			}
			p.vals[s.Key()][gi] = s.Merge(p.vals[s.Key()][gi], v)
		}
	}
	return p
}

// genRows builds a random row multiset with interleaved groups and
// adversarial specials: NaNs with three different payloads, ±Inf, a
// single-row group. |v| ≤ 3 and at most ~30 rows per group keep sums and
// products exact in float64.
func genRows(rng *rand.Rand) []mrow {
	var rows []mrow
	groups := 1 + rng.Intn(8)
	for g := 0; g < groups; g++ {
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(7) - 3)
			switch rng.Intn(40) {
			case 0:
				v = math.Float64frombits(0x7ff8000000000000 | uint64(1+rng.Intn(3)))
			case 1:
				v = math.Inf(1 - 2*rng.Intn(2))
			}
			rows = append(rows, mrow{g: int64(g), v: v})
		}
	}
	rows = append(rows, mrow{g: 999, v: 5})
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// sameUpToNaN compares bit patterns, every NaN equal to every NaN.
func sameUpToNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestMergeDeltaPartitionInvariance: for a random row multiset, every
// random split into parts (rows assigned anywhere, empty parts included)
// merged in a shuffled order gives the whole-multiset fold, and every
// MergeDelta step on the way is exactly its definition.
func TestMergeDeltaPartitionInvariance(t *testing.T) {
	states := mergeStates()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rows := genRows(rng)
		want := foldRows(states, rows)

		n := 1 + rng.Intn(9)
		parts := make([][]mrow, n)
		for _, r := range rows {
			i := rng.Intn(n)
			parts[i] = append(parts[i], r)
		}
		rng.Shuffle(n, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

		first := foldRows(states, parts[0])
		gt := NewGroupTable("fp", []string{"g"}, first.keys, first.cols)
		for _, s := range states {
			if err := gt.AddState(&CachedState{State: s, Vals: first.vals[s.Key()]}); err != nil {
				t.Fatal(err)
			}
		}
		for _, part := range parts[1:] {
			delta := foldRows(states, part)
			next, err := MergeDelta(gt, "fp", delta.keys, delta.cols, delta.vals, nil, nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			checkMergeStep(t, trial, states, gt, delta, next)
			gt = next
		}

		if len(gt.Keys) != len(want.keys) {
			t.Fatalf("trial %d: %d groups merged, want %d", trial, len(gt.Keys), len(want.keys))
		}
		for wi, k := range want.keys {
			gi, ok := gt.IndexOf(k)
			if !ok {
				t.Fatalf("trial %d: group %d lost in the merge", trial, k[0])
			}
			for _, s := range states {
				cs, _ := gt.Exact(s.Key())
				if w, got := want.vals[s.Key()][wi], cs.Vals[gi]; !sameUpToNaN(w, got) {
					t.Fatalf("trial %d (%d parts): group %d %s = %v, one fold gives %v", trial, n, k[0], s.Key(), got, w)
				}
			}
		}
	}
}

// checkMergeStep holds one MergeDelta step to its definition: the groups
// are prev's in prev's order, then the delta's new ones in delta order;
// each state is prev ⊕ delta with the absent side's ⊕-identity, the
// operands in that order. The reference runs the same MergeVals over the
// same operands, so here NaN payloads must match too.
func checkMergeStep(t *testing.T, trial int, states []canonical.State, prev *GroupTable, delta partFold, next *GroupTable) {
	t.Helper()
	union := append([]GroupKey(nil), prev.Keys...)
	inDelta := map[GroupKey]int{}
	for i, k := range delta.keys {
		inDelta[k] = i
		if _, ok := prev.IndexOf(k); !ok {
			union = append(union, k)
		}
	}
	if fmt.Sprint(next.Keys) != fmt.Sprint(union) {
		t.Fatalf("trial %d: merged groups %v, want %v", trial, next.Keys, union)
	}
	for i, k := range union {
		if next.KeyCols[0].I[i] != k[0] {
			t.Fatalf("trial %d: key column %v disagrees with groups %v", trial, next.KeyCols[0].I, union)
		}
	}
	for _, s := range states {
		old, _ := prev.Exact(s.Key())
		acc := make([]float64, len(union))
		add := make([]float64, len(union))
		for i, k := range union {
			acc[i], add[i] = s.MergeIdentity(), s.MergeIdentity()
			if j, ok := prev.IndexOf(k); ok {
				acc[i] = old.Vals[j]
			}
			if j, ok := inDelta[k]; ok {
				add[i] = delta.vals[s.Key()][j]
			}
		}
		want := s.MergeVals(acc, add)
		cs, ok := next.Exact(s.Key())
		if !ok {
			t.Fatalf("trial %d: state %s lost in the merge", trial, s.Key())
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(cs.Vals[i]) {
				t.Fatalf("trial %d: group %d %s = %#x, prev ⊕ delta = %#x", trial, union[i][0], s.Key(),
					math.Float64bits(cs.Vals[i]), math.Float64bits(want[i]))
			}
		}
	}
}
