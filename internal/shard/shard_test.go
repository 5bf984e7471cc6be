package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/errs"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/storage"
)

// The merge property test fabricates partials directly — no engine, no
// workers — and checks the ⊕-merge algebra MergePartials builds on: for
// ANY assignment of rows to shards and ANY shard order, the merged
// per-group values are bit-identical to a direct fold over the whole
// multiset. Row values are integer-valued floats (plus NaN/±Inf
// specials), so every ⊕ reduction is exact and "identical" means
// Float64bits-identical, not within-epsilon.

// mrow is one input row: a group and a value.
type mrow struct {
	g int64
	v float64
}

// mergeStates are the fold shapes under test: one per ⊕ flavor (the F
// chains are empty — F applies per tuple before ⊕ and is irrelevant to
// merge algebra; distinct Base vars keep the state keys distinct).
func mergeStates() []canonical.State {
	return []canonical.State{
		{Op: canonical.OpSum, F: scalar.NewChain(), Base: expr.MustParse("a")},
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		{Op: canonical.OpMin, F: scalar.NewChain(), Base: expr.MustParse("b")},
		{Op: canonical.OpMax, F: scalar.NewChain(), Base: expr.MustParse("c")},
		{Op: canonical.OpProd, F: scalar.NewChain(), Base: expr.MustParse("d")},
	}
}

// foldUpdate folds one row into a per-state accumulator. Values are
// small integers (|v| ≤ 3, ≤ ~30 per group), so sums and products stay
// exact in float64 and bit comparison is sound.
func foldUpdate(st canonical.State, acc, v float64) float64 {
	if st.Op == canonical.OpCount {
		return acc + 1
	}
	return st.Merge(acc, v)
}

// buildPartial computes one shard's per-group partial over its rows, in
// first-appearance group order — exactly what a worker scan produces.
func buildPartial(states []canonical.State, rows []mrow) *Partial {
	var keys []cache.GroupKey
	kc := storage.NewColumn("g", storage.KindInt)
	idx := map[int64]int{}
	vals := make([][]float64, len(states))
	for _, r := range rows {
		gi, ok := idx[r.g]
		if !ok {
			gi = len(keys)
			idx[r.g] = gi
			keys = append(keys, cache.GroupKey{r.g, 0})
			kc.AppendInt(r.g)
			for i, st := range states {
				vals[i] = append(vals[i], st.MergeIdentity())
			}
		}
		for i, st := range states {
			vals[i][gi] = foldUpdate(st, vals[i][gi], r.v)
		}
	}
	return &Partial{
		Keys:     keys,
		KeyNames: []string{"g"},
		KeyCols:  []*storage.Column{kc},
		Vals:     vals,
		Rows:     len(rows),
	}
}

// asMap canonicalizes a merged result for order-independent bit
// comparison: group key → per-state value bit patterns (NaN normalized).
func asMap(states []canonical.State, m *Merged) map[int64][]uint64 {
	out := map[int64][]uint64{}
	for gi, k := range m.Keys {
		row := make([]uint64, len(states))
		for i := range states {
			v := m.Vals[i][gi]
			if math.IsNaN(v) {
				v = math.NaN()
			}
			row[i] = math.Float64bits(v)
		}
		out[k[0]] = row
	}
	return out
}

// genRows builds a random integer-valued row multiset with adversarial
// specials: NaN and ±Inf rows, a single-row group and a heavy group.
func genRows(rng *rand.Rand) []mrow {
	groups := 1 + rng.Intn(8)
	var rows []mrow
	for g := 0; g < groups; g++ {
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(7) - 3) // small ints, signed
			if rng.Intn(40) == 0 {
				v = math.NaN()
			} else if rng.Intn(40) == 0 {
				v = math.Inf(1 - 2*rng.Intn(2))
			}
			rows = append(rows, mrow{g: int64(g), v: v})
		}
	}
	// One group that only ever has a single row.
	rows = append(rows, mrow{g: 999, v: 5})
	return rows
}

// TestShardMergePartitionInvariance is the ⊕-merge property test: for a
// random row multiset, every random shard assignment (including empty
// shards) and every merge order produces the identical per-group result
// — bit-identical to the direct whole-multiset fold.
func TestShardMergePartitionInvariance(t *testing.T) {
	states := mergeStates()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rows := genRows(rng)

		// Ground truth: one fold over the whole multiset.
		want := asMap(states, mustMerge(t, states, []*Partial{buildPartial(states, rows)}))

		// Random partitioning into n shards (row→shard assignment is
		// arbitrary, not necessarily contiguous; n may exceed the row
		// count, forcing empty shards).
		n := 1 + rng.Intn(9)
		parts := make([][]mrow, n)
		for _, r := range rows {
			s := rng.Intn(n)
			parts[s] = append(parts[s], r)
		}
		partials := make([]*Partial, n)
		for i := range parts {
			partials[i] = buildPartial(states, parts[i])
		}

		got := asMap(states, mustMerge(t, states, partials))
		diffMaps(t, trial, "partitioned", want, got)

		// Merge order must not matter either: shuffle the partials.
		rng.Shuffle(n, func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
		got = asMap(states, mustMerge(t, states, partials))
		diffMaps(t, trial, "shuffled", want, got)
	}
}

func mustMerge(t *testing.T, states []canonical.State, parts []*Partial) *Merged {
	t.Helper()
	m, err := MergePartials(states, parts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func diffMaps(t *testing.T, trial int, what string, want, got map[int64][]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d %s: group counts differ: want %d got %d", trial, what, len(want), len(got))
	}
	for g, wv := range want {
		gv, ok := got[g]
		if !ok {
			t.Fatalf("trial %d %s: group %d missing", trial, what, g)
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("trial %d %s: group %d state %d: want %v got %v", trial, what, g, i,
					math.Float64frombits(wv[i]), math.Float64frombits(gv[i]))
			}
		}
	}
}

// TestShardMergeRowAccounting checks Rows sums across partials and
// kernel names dedup in first-appearance order.
func TestShardMergeRowAccounting(t *testing.T) {
	states := mergeStates()
	p1 := buildPartial(states, []mrow{{1, 2}, {1, 3}, {2, 4}})
	p2 := buildPartial(states, []mrow{{2, 5}})
	p1.Kernels = []string{"k1", "k2"}
	p2.Kernels = []string{"k2", "k3"}
	m, err := MergePartials(states, []*Partial{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 4 {
		t.Errorf("Rows = %d, want 4", m.Rows)
	}
	if fmt.Sprint(m.Kernels) != "[k1 k2 k3]" {
		t.Errorf("kernels must dedup in first-appearance order, got %v", m.Kernels)
	}
}

// TestShardMergeRejectsDuplicateStates pins the defensive checks.
func TestShardMergeRejectsDuplicateStates(t *testing.T) {
	st := canonical.State{Op: canonical.OpSum, F: scalar.NewChain(), Base: expr.MustParse("a")}
	states := []canonical.State{st, st}
	p := buildPartial(states, []mrow{{1, 1}})
	if _, err := MergePartials(states, []*Partial{p}); err == nil {
		t.Fatal("duplicate state keys must be rejected")
	}
	if _, err := MergePartials(states[:1], nil); err == nil {
		t.Fatal("zero partials must be rejected")
	}
}

// TestShardGatherValidates pins the worker/slice arity check and its
// typed error.
func TestShardGatherValidates(t *testing.T) {
	_, err := Gather(context.Background(), nil, &Request{})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, errs.ErrShard) {
		t.Fatalf("error must wrap errs.ErrShard: %v", err)
	}
}
