package exec

import (
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// Strict tests of the min/max folds (DESIGN.md §8): every loop must keep
// exactly what canonical.Min/Max keep, foldKeyed's selects by calling
// them, foldKeyless by its compare-and-branch. No loop does arithmetic,
// so the comparison is on the partials' bits with no allowance for NaNs:
// the payload a group ends with says which NaN won.

// minMaxValues are the inputs whose bits tell the rules apart: quiet and
// signaling NaNs of both signs with distinct payloads, both zeros, both
// infinities, subnormals and ordinary values.
var minMaxValues = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff8_0000_0000_0001),
	math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff4_0000_0000_0c0d),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
	1, -1, 0.5, -2.5,
}

// minMaxSequences are planted one per group, in row order: a NaN meeting
// the identity, a value and another NaN; a NaN accumulator meeting values
// and infinities; both zeros in both orders; subnormals around zero.
var minMaxSequences = [][]float64{
	{minMaxValues[0], 1, minMaxValues[2]},
	{1, minMaxValues[1], -1, math.Inf(-1), math.Inf(1), minMaxValues[3]},
	{math.Copysign(0, -1), 0},
	{0, math.Copysign(0, -1)},
	{5e-324, math.Copysign(0, -1), -5e-324, 0},
	{math.Inf(1), minMaxValues[2], minMaxValues[0], 0.5},
}

// minMaxTable holds a key in [100, 100+groups) and the value x. Its first
// rows plant minMaxSequences in groups 0, 1, …, interleaved; the rest draw
// values at random into the other groups, where NaNs soon win.
func minMaxTable(rows, groups int) *storage.Table {
	rng := rand.New(rand.NewSource(3))
	t := storage.NewTable("mm", storage.NewColumn("k", storage.KindInt), storage.NewColumn("x", storage.KindFloat))
	for i := 0; ; i++ {
		planted := false
		for g, seq := range minMaxSequences {
			if i < len(seq) {
				t.Col("k").AppendInt(100 + int64(g))
				t.Col("x").AppendFloat(seq[i])
				planted = true
			}
		}
		if !planted {
			break
		}
	}
	for t.NumRows() < rows {
		t.Col("k").AppendInt(100 + int64(len(minMaxSequences)+rng.Intn(groups-len(minMaxSequences))))
		x := minMaxValues[rng.Intn(len(minMaxValues))]
		if rng.Intn(2) == 0 {
			x = rng.NormFloat64()
		}
		t.Col("x").AppendFloat(x)
	}
	return t
}

func TestKeyedMinMaxSelectsMatchScalarBits(t *testing.T) {
	const groups = 37
	tbl := minMaxTable(3*BatchSize+17, groups)
	rng := rand.New(rand.NewSource(4))
	var subset []int32 // every row but a random fifth, ascending
	for r := 0; r < tbl.NumRows(); r++ {
		if rng.Intn(5) != 0 {
			subset = append(subset, int32(r))
		}
	}
	keys := tbl.Col("k").I
	for _, op := range []canonical.AggOp{canonical.OpMin, canonical.OpMax} {
		st := canonical.State{Op: op, Base: expr.MustParse("x")}
		// The paths: slots from the key column itself (FoldKey) and from
		// group ids (FoldIDs, FoldHash), read in place; and group ids with
		// the column behind a row vector, read through it (fused).
		for _, c := range []struct {
			path  string
			rows  []int32
			fused bool
		}{{"key", nil, false}, {"ids", nil, false}, {"fused", subset, true}} {
			rs := &RowSet{n: tbl.NumRows(), tables: []*storage.Table{tbl}, vecs: map[string][]int32{"mm": c.rows}}
			if c.rows != nil {
				rs.n = len(c.rows)
			}
			task, err := NewStateTask(st, rs)
			if err != nil {
				t.Fatal(err)
			}
			if task.fused != c.fused {
				t.Fatalf("%s %s: fused %v, want %v", op, c.path, task.fused, c.fused)
			}
			// The reference is the State.Merge fold of each group's values
			// in row order.
			want := make([]float64, groups)
			for s := range want {
				want[s] = st.MergeIdentity()
			}
			got := task.NewPartial(groups)
			vs := task.NewScratch()
			gids := make([]int32, BatchSize)
			for lo := 0; lo < rs.n; lo += BatchSize {
				hi := min(lo+BatchSize, rs.n)
				for j := range gids[:hi-lo] {
					r := physRow(c.rows, lo+j)
					gids[j] = int32(keys[r] - 100)
					want[gids[j]] = st.Merge(want[gids[j]], tbl.Col("x").F[r])
				}
				ix := GroupIndex{IDs: gids[:hi-lo]}
				if c.path == "key" {
					ix = GroupIndex{Keys: keys[lo:hi], Base: 100}
				}
				task.Accumulate(vs, got, lo, hi, ix)
			}
			g := got.(*floatsPartial).arrs[0]
			for s := 0; s < groups; s++ {
				if math.Float64bits(want[s]) != math.Float64bits(g[s]) {
					t.Errorf("%s %s: group %d: %#x, State.Merge fold %#x", op, c.path, s, math.Float64bits(g[s]), math.Float64bits(want[s]))
				}
			}
		}
	}
}

// TestKeylessMinMaxBranchIsCanonical holds foldKeyless's compare-and-
// branch to canonical.Min/Max, batch by batch from a carried register,
// read in place and fused. Accumulate never keeps a keyless fold that
// ends in NaN, so foldKeyless is called directly.
func TestKeylessMinMaxBranchIsCanonical(t *testing.T) {
	tbl := minMaxTable(3*BatchSize+17, 37)
	x := tbl.Col("x").F
	var subset []int32 // every third row
	for r := 0; r < tbl.NumRows(); r += 3 {
		subset = append(subset, int32(r))
	}
	for _, op := range []canonical.AggOp{canonical.OpMin, canonical.OpMax} {
		st := canonical.State{Op: op, Base: expr.MustParse("x")}
		for _, rows := range [][]int32{nil, subset} {
			rs := &RowSet{n: tbl.NumRows(), tables: []*storage.Table{tbl}, vecs: map[string][]int32{"mm": rows}}
			if rows != nil {
				rs.n = len(rows)
			}
			task, err := NewStateTask(st, rs)
			if err != nil {
				t.Fatal(err)
			}
			vs := task.NewScratch().(*stateScratch)
			got, want := st.MergeIdentity(), st.MergeIdentity()
			for lo := 0; lo < rs.n; lo += BatchSize {
				hi := min(lo+BatchSize, rs.n)
				got = task.foldKeyless(vs, got, lo, hi)
				for i := lo; i < hi; i++ {
					want = st.Merge(want, x[physRow(rows, i)])
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s fused=%v rows [0,%d): %#x, canonical %#x", op, task.fused, hi, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}
