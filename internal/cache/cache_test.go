package cache

import (
	"fmt"
	"math"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/storage"
)

func mkGT(fp string, n int) *GroupTable {
	keys := make([]GroupKey, n)
	kc := storage.NewColumn("g", storage.KindInt)
	for i := 0; i < n; i++ {
		keys[i] = GroupKey{int64(i), 0}
		kc.AppendInt(int64(i))
	}
	return NewGroupTable(fp, []string{"g"}, keys, []*storage.Column{kc})
}

func st(op canonical.AggOp, base string, prims ...scalar.Prim) canonical.State {
	return canonical.State{Op: op, F: scalar.NewChain(prims...), Base: expr.MustParse(base)}
}

// lookupKind resolves one state through LookupAll, the cache's only
// lookup entry point.
func lookupKind(c *Cache, fp string, want canonical.State, positive bool) ([]float64, HitKind, bool) {
	look := c.LookupAll(fp, []canonical.State{want}, []bool{positive}, nil, nil, nil)
	kind := HitNone
	switch {
	case look.Exact == 1:
		kind = HitExact
	case look.Shared == 1:
		kind = HitShared
	case look.Sign == 1:
		kind = HitSign
	}
	return look.Vals[0], kind, look.Vals[0] != nil
}

func lookup(c *Cache, fp string, want canonical.State, positive bool) ([]float64, bool) {
	vals, _, ok := lookupKind(c, fp, want, positive)
	return vals, ok
}

// entryOf fetches (and LRU-touches) a fingerprint's entry.
func entryOf(c *Cache, fp string) (*GroupTable, bool) {
	gt := c.LookupAll(fp, nil, nil, nil, nil, nil).Entry
	return gt, gt != nil
}

func TestExactHit(t *testing.T) {
	c := New(0)
	gt := mkGT("fp1", 3)
	s := st(canonical.OpSum, "x", scalar.PowerP(2))
	if err := gt.AddState(&CachedState{State: s, Vals: []float64{1, 2, 3}, PositiveInput: true}); err != nil {
		t.Fatal(err)
	}
	c.Put(gt)
	vals, ok := lookup(c, "fp1", s, true)
	if !ok || vals[2] != 3 {
		t.Fatalf("exact hit failed: %v %v", vals, ok)
	}
	if c.Stats().ExactHits != 1 {
		t.Errorf("stats: %+v", c.Stats())
	}
}

func TestMissOnWrongFingerprint(t *testing.T) {
	c := New(0)
	gt := mkGT("fp1", 2)
	s := st(canonical.OpSum, "x")
	_ = gt.AddState(&CachedState{State: s, Vals: []float64{1, 2}})
	c.Put(gt)
	if _, ok := lookup(c, "fp-other", s, true); ok {
		t.Fatal("lookup must respect the data fingerprint")
	}
}

func TestSharedHitViaTheorem41(t *testing.T) {
	c := New(0)
	gt := mkGT("fp", 4)
	// Cache Σ ln x; request Π x — case 2.3, r = exp.
	lnState := st(canonical.OpSum, "x", scalar.LogP(scalar.E))
	vals := []float64{0, math.Log(2), math.Log(6), math.Log(24)}
	_ = gt.AddState(&CachedState{State: lnState, Vals: vals, PositiveInput: true})
	c.Put(gt)
	prodState := st(canonical.OpProd, "x")
	got, ok := lookup(c, "fp", prodState, true)
	if !ok {
		t.Fatal("Πx should be served from Σln x")
	}
	want := []float64{1, 2, 6, 24}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("group %d: %v, want %v", i, got[i], want[i])
		}
	}
	if c.Stats().SharedHits != 1 {
		t.Errorf("stats: %+v", c.Stats())
	}
	// A repeat is served the same way, with the same bits: r(s) is
	// computed when read and never stored, so the entry still holds Σ ln x
	// alone.
	again, kind, ok := lookupKind(c, "fp", prodState, true)
	if !ok || kind != HitShared {
		t.Fatalf("repeat lookup: %v (served %v), want a shared hit", kind, ok)
	}
	for i := range got {
		if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
			t.Errorf("group %d: repeat served %v, first %v", i, again[i], got[i])
		}
	}
	if st := c.Stats(); st.SharedHits != 2 || st.ExactHits != 0 {
		t.Errorf("stats: %+v", st)
	}
	if entry, _ := entryOf(c, "fp"); entry.NumStates() != 1 {
		t.Errorf("entry holds %d states after two shared hits, want 1", entry.NumStates())
	}
}

func TestNoShareAcrossBases(t *testing.T) {
	c := New(0)
	gt := mkGT("fp", 2)
	_ = gt.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: []float64{1, 2}, PositiveInput: true})
	c.Put(gt)
	if _, ok := lookup(c, "fp", st(canonical.OpSum, "y"), true); ok {
		t.Fatal("states over different base columns must not share")
	}
}

func TestSignSplitReconstruction(t *testing.T) {
	c := New(0)
	gt := mkGT("fp", 2)
	lnAbs, sgnProd := SignSplitStates(expr.MustParse("x"))
	// Group 0: values {2, 3} → Σln|x| = ln6, Πsgn = 1.
	// Group 1: values {-2, 3} → Σln|x| = ln6, Πsgn = -1.
	_ = gt.AddState(&CachedState{State: lnAbs, Vals: []float64{math.Log(6), math.Log(6)}})
	_ = gt.AddState(&CachedState{State: sgnProd, Vals: []float64{1, -1}})
	c.Put(gt)
	got, ok := lookup(c, "fp", st(canonical.OpProd, "x"), false)
	if !ok {
		t.Fatal("Πx should reconstruct from sign-split companions")
	}
	if math.Abs(got[0]-6) > 1e-9 || math.Abs(got[1]+6) > 1e-9 {
		t.Errorf("got %v, want [6 -6]", got)
	}
	// Σ ln(x²) = 2Σln|x| also served.
	lnSq := st(canonical.OpSum, "x", scalar.PowerP(2), scalar.LogP(scalar.E))
	got2, ok := lookup(c, "fp", lnSq, false)
	if !ok {
		t.Fatal("Σln(x²) should reconstruct from Σln|x|")
	}
	if math.Abs(got2[0]-2*math.Log(6)) > 1e-9 {
		t.Errorf("got %v", got2)
	}
	if c.Stats().SignHits != 2 {
		t.Errorf("stats: %+v", c.Stats())
	}
}

func TestPutMergesStates(t *testing.T) {
	c := New(0)
	gt1 := mkGT("fp", 2)
	_ = gt1.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: []float64{1, 2}})
	c.Put(gt1)
	gt2 := mkGT("fp", 2)
	_ = gt2.AddState(&CachedState{State: st(canonical.OpSum, "x", scalar.PowerP(2)), Vals: []float64{1, 4}})
	c.Put(gt2)
	entry, ok := entryOf(c, "fp")
	if !ok || entry.NumStates() != 2 {
		t.Fatalf("merge failed: %d states", entry.NumStates())
	}
}

func TestEviction(t *testing.T) {
	c := New(4096) // tiny budget
	for i := 0; i < 50; i++ {
		gt := mkGT(fmt.Sprintf("fp%d", i), 100)
		_ = gt.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: make([]float64, 100)})
		c.Put(gt)
	}
	if c.Stats().Evictions == 0 {
		t.Error("expected evictions under a tiny budget")
	}
	// The most recent entry must survive.
	if _, ok := entryOf(c, "fp49"); !ok {
		t.Error("most recent entry evicted")
	}
}

func TestToTable(t *testing.T) {
	gt := mkGT("fp", 3)
	_ = gt.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: []float64{1, 2, 3}})
	_ = gt.AddState(&CachedState{State: canonical.State{Op: canonical.OpCount, Base: &expr.Num{Val: 1}}, Vals: []float64{10, 20, 30}})
	tbl := gt.ToTable("v1", func(i int, s *CachedState) string { return fmt.Sprintf("s%d", i+1) })
	if tbl.NumRows() != 3 || tbl.Col("s1") == nil || tbl.Col("s2") == nil || tbl.Col("g") == nil {
		t.Fatalf("bad view table: %v rows, cols %v", tbl.NumRows(), tbl.ColumnNames())
	}
	if tbl.Col("s2").F[1] != 20 {
		t.Errorf("state column misaligned")
	}
}

func TestAddStateLengthMismatch(t *testing.T) {
	gt := mkGT("fp", 3)
	err := gt.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: []float64{1}})
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}

// TestMergeDeltaGroupSets pins MergeDelta's two shapes. A delta over
// known groups yields a successor that shares the prior entry's keys,
// key columns and index (they are immutable, and copying them per append
// is what made maintained entries outweigh their state values); a delta
// with a new group gets its own, and leaves the prior entry untouched.
func TestMergeDeltaGroupSets(t *testing.T) {
	sum := st(canonical.OpSum, "x")
	prev := mkGT("fp@1", 3)
	if err := prev.AddState(&CachedState{State: sum, Vals: []float64{1, 2, 3}, PositiveInput: true}); err != nil {
		t.Fatal(err)
	}
	deltaCol := func(keys ...int64) ([]GroupKey, []*storage.Column) {
		kc := storage.NewColumn("g", storage.KindInt)
		gk := make([]GroupKey, len(keys))
		for i, k := range keys {
			gk[i] = GroupKey{k, 0}
			kc.AppendInt(k)
		}
		return gk, []*storage.Column{kc}
	}
	vals := func(gt *GroupTable) []float64 {
		cs, ok := gt.Exact(sum.Key())
		if !ok {
			t.Fatal("state lost in merge")
		}
		return cs.Vals
	}

	dk, dc := deltaCol(2, 0)
	same, err := MergeDelta(prev.SnapshotEntry(), "fp@2", dk, dc,
		map[string][]float64{sum.Key(): {10, 20}}, map[string]bool{sum.Key(): true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals(same); fmt.Sprint(got) != "[21 2 13]" {
		t.Errorf("same group set: vals = %v, want [21 2 13]", got)
	}
	if &same.Keys[0] != &prev.Keys[0] || same.KeyCols[0] != prev.KeyCols[0] {
		t.Error("same group set: successor copied the prior entry's keys")
	}
	if i, ok := same.IndexOf(GroupKey{2, 0}); !ok || i != 2 {
		t.Errorf("same group set: IndexOf(2) = %d, %v", i, ok)
	}

	dk, dc = deltaCol(7, 1)
	grown, err := MergeDelta(same.SnapshotEntry(), "fp@3", dk, dc,
		map[string][]float64{sum.Key(): {100, 200}}, map[string]bool{sum.Key(): true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals(grown); fmt.Sprint(got) != "[21 202 13 100]" {
		t.Errorf("new group: vals = %v, want [21 202 13 100]", got)
	}
	if i, ok := grown.IndexOf(GroupKey{7, 0}); !ok || i != 3 || grown.KeyCols[0].I[3] != 7 {
		t.Errorf("new group: key 7 at %d (%v), key column %v", i, ok, grown.KeyCols[0].I)
	}
	if _, ok := same.IndexOf(GroupKey{7, 0}); ok || len(same.Keys) != 3 || same.KeyCols[0].Len() != 3 {
		t.Error("new group leaked into the prior entry")
	}
}
