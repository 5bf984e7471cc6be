package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// Property test of the keyless register fold (DESIGN.md §8): a grand
// aggregate's kernels fold each batch into a local accumulator and store
// group 0 once, with no group-id vector. The same states grouped by a
// constant key that hashes run the keyed loops over an all-zero id
// vector, one group, the same rows in the same order, so the two must
// agree to the bit, NaN payloads included, for every kernel class, in
// place and fused behind row vectors, and under one, two and eight
// workers.

// keylessRows spans four morsels, the last one short.
const keylessRows = 3*MorselRows + 999

// keylessConst is the constant key: beyond ±2^53, so it never has a
// dense domain and groups through the hash path.
const keylessConst = int64(1) << 60

// keylessCatalog builds the fact table and the join's dimension. The
// fact table is two sealed segments: rows [0, MorselRows+MorselRows/2)
// and the rest, appended. Its columns:
//
//	x   float: specials (NaNs with payloads, one signaling, ±Inf, −0,
//	    subnormals) at random among values in [0.5, 1.5)
//	y   float: values in [0.5, 1.5), the fused sum(x*y)'s second input
//	iv  int in [-3, 5)
//	e   float runs of length 8: integers in the first segment, where
//	    every run-fold engages, halves in the second, where the sums'
//	    folds decline and min/max still fold
//	c   the constant key
//	fk  int in [0, 50), joins dim.d_id
func keylessCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	newFact := func() *storage.Table {
		return storage.NewTable("kl",
			storage.NewColumn("x", storage.KindFloat),
			storage.NewColumn("y", storage.KindFloat),
			storage.NewColumn("iv", storage.KindInt),
			storage.NewColumn("e", storage.KindFloat),
			storage.NewColumn("c", storage.KindInt),
			storage.NewColumn("fk", storage.KindInt))
	}
	split := MorselRows + MorselRows/2
	first, rest := newFact(), newFact()
	for i := 0; i < keylessRows; i++ {
		tbl, e := first, float64(1+(i/8)%5)
		if i >= split {
			tbl, e = rest, 0.5+float64((i/8)%3)
		}
		x := 0.5 + rng.Float64()
		if rng.Intn(512) == 0 {
			x = denseSpecials[rng.Intn(len(denseSpecials))]
		}
		tbl.Col("x").AppendFloat(x)
		tbl.Col("y").AppendFloat(0.5 + rng.Float64())
		tbl.Col("iv").AppendInt(int64(rng.Intn(8)) - 3)
		tbl.Col("e").AppendFloat(e)
		tbl.Col("c").AppendInt(keylessConst)
		tbl.Col("fk").AppendInt(int64(rng.Intn(50)))
	}
	first.Seal()
	fact, err := first.AppendRows(rest)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range []*storage.Table{fact, denseDim()} {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestKeylessFoldsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4-morsel table")
	}
	form, err := canonical.Decompose("mix", []string{"x"},
		expr.MustParse("sum(x) + prod(x) + min(x) - max(x)"))
	if err != nil {
		t.Fatal(err)
	}
	// denseStates covers every kernel class over x, whose specials make
	// most sums NaN; the same sums over y stay finite, so a fold that
	// reassociates them changes their bits.
	states := append(denseStates(t),
		canonical.State{Op: canonical.OpSum, Base: expr.MustParse("x*y")},
		canonical.State{Op: canonical.OpSum, Base: expr.MustParse("y")},
		canonical.State{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("y")},
		canonical.State{Op: canonical.OpSum, F: mustChain(t, "x^3"), Base: expr.MustParse("y")},
		canonical.State{Op: canonical.OpSum, F: mustChain(t, "ln(x+1)"), Base: expr.MustParse("y*y")},
		canonical.State{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		canonical.State{Op: canonical.OpSum, Base: expr.MustParse("e")},
		canonical.State{Op: canonical.OpSum, F: mustChain(t, "x^2"), Base: expr.MustParse("e")},
		canonical.State{Op: canonical.OpProd, Base: expr.MustParse("e")},
		canonical.State{Op: canonical.OpMin, Base: expr.MustParse("e")},
		canonical.State{Op: canonical.OpMax, Base: expr.MustParse("e")},
	)
	cat := keylessCatalog(t)
	// The encoded column mixes folds and declines: in the first morsel
	// every fold of e engages, in the last the sums decline while min and
	// max fold.
	tbl, err := cat.Table("kl")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lo, hi   int
		integral bool
	}{{0, MorselRows, true}, {3 * MorselRows, keylessRows, false}} {
		maxAbs, integral, ok := tbl.Col("e").RunCoverage(c.lo, c.hi)
		if !ok || integral != c.integral || math.IsInf(maxAbs, 0) {
			t.Fatalf("e rows [%d, %d): covered %v, integral %v; want covered, integral %v", c.lo, c.hi, ok, integral, c.integral)
		}
	}
	// Identity row sets run-fold what they can; a filter and a join put
	// the inputs behind row vectors, where float columns are fused.
	for _, from := range []string{"kl", "kl WHERE iv < 4", "kl, dim WHERE fk = d_id"} {
		keyless := "SELECT sum(x) FROM " + from
		keyed := fmt.Sprintf("SELECT c, sum(x) FROM %s GROUP BY c", from)
		folds := storage.RunFoldsExecuted()
		want := runDenseTasks(t, NewEngine(cat, 2), keyed, states, form)
		if want.Fold != FoldHash || want.NumGroups != 1 || want.Keys[0] != (GroupKey{keylessConst}) {
			t.Fatalf("%s: fold %q over %d groups, want one hashed group", keyed, want.Fold, want.NumGroups)
		}
		if storage.RunFoldsExecuted() != folds {
			t.Fatalf("%s: a keyed scan run-folded", keyed)
		}
		for _, workers := range []int{1, 2, 8} {
			folds := storage.RunFoldsExecuted()
			got := runDenseTasks(t, NewEngine(cat, workers), keyless, states, form)
			if got.Fold != FoldKeyless {
				t.Fatalf("%s: fold %q, want %q", keyless, got.Fold, FoldKeyless)
			}
			if ran := storage.RunFoldsExecuted() > folds; ran != (from == "kl") {
				t.Fatalf("%s workers=%d: run-folds ran %v, want %v", keyless, workers, ran, from == "kl")
			}
			assertSameValues(t, fmt.Sprintf("%s workers=%d against %s", keyless, workers, keyed), want, got)
		}
	}
}
