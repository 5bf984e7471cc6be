package cache

import (
	"math"
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/scalar"
)

// finalFixture caches two source states under "fp" and memoizes the column
// of terminating function "t" over them.
func finalFixture(t *testing.T, c *Cache) (src []canonical.State, srcVals [][]float64, col []float64) {
	t.Helper()
	src = []canonical.State{st(canonical.OpSum, "x"), st(canonical.OpSum, "x", scalar.PowerP(2))}
	srcVals = [][]float64{{1, 2, 3}, {1, 4, 9}}
	gt := mkGT("fp", 3)
	for i, s := range src {
		if err := gt.AddState(&CachedState{State: s, Vals: srcVals[i], PositiveInput: true}); err != nil {
			t.Fatal(err)
		}
	}
	entry := c.Put(gt)
	col = []float64{10, 20, 30}
	if c.StoreFinal(entry, "t", col, sumsOf(srcVals)) == nil {
		t.Fatal("StoreFinal refused the live entry")
	}
	return src, srcVals, col
}

func sumsOf(cols [][]float64) []uint64 {
	out := make([]uint64, len(cols))
	for i, v := range cols {
		out[i] = ChecksumVals(v)
	}
	return out
}

// wantFinal is the FinalWant for t's column over all of src, in order.
func wantFinal(tKey string, src []canonical.State) FinalWant {
	idx := make([]int, len(src))
	for i := range idx {
		idx[i] = i
	}
	return FinalWant{T: tKey, Src: idx}
}

// lookupFinal runs one LookupAll wanting src and t's column over it.
func lookupFinal(c *Cache, tKey string, src []canonical.State) []float64 {
	pos := make([]bool, len(src))
	for i := range pos {
		pos[i] = true
	}
	return c.LookupAll("fp", src, pos, []FinalWant{wantFinal(tKey, src)}, nil, nil).Finals[0]
}

func probeFinal(c *Cache, fp, tKey string, src []canonical.State) bool {
	pos := make([]bool, len(src))
	for i := range pos {
		pos[i] = true
	}
	return c.ProbeFinal(fp, src, pos, wantFinal(tKey, src))
}

func TestFinalServedWhileSourcesMatch(t *testing.T) {
	c := New(0)
	src, _, col := finalFixture(t, c)
	got := lookupFinal(c, "t", src)
	if len(got) != 3 || &got[0] != &col[0] {
		t.Fatalf("stored column not served: %v", got)
	}
	if lookupFinal(c, "other-t", src) != nil {
		t.Error("a final answered for another terminating function")
	}
	// The same function over other inputs (another base column) is another final.
	if lookupFinal(c, "t", []canonical.State{src[1], src[0]}) != nil {
		t.Error("a final answered for other source states")
	}
	if !probeFinal(c, "fp", "t", src) || probeFinal(c, "fp", "t", src[:1]) || probeFinal(c, "nope", "t", src) {
		t.Error("ProbeFinal disagrees with LookupAll")
	}
	if got := c.Stats().FinalHits; got != 1 {
		t.Errorf("FinalHits = %d, want 1 (probes and refusals do not count)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFinalRetiredWhenSourceReplaced(t *testing.T) {
	c := New(0)
	src, _, _ := finalFixture(t, c)
	// Put the second source again with other values: same key, new checksum.
	gt := mkGT("fp", 3)
	_ = gt.AddState(&CachedState{State: src[1], Vals: []float64{1, 4, 10}, PositiveInput: true})
	c.Put(gt)
	if got := lookupFinal(c, "t", src); got != nil {
		t.Fatalf("final served after a source state changed: %v", got)
	}
	if probeFinal(c, "fp", "t", src) {
		t.Error("ProbeFinal still reports the retired final")
	}
	// Restoring the original values makes the inputs — and so the final — valid again.
	gt = mkGT("fp", 3)
	_ = gt.AddState(&CachedState{State: src[1], Vals: []float64{1, 4, 9}, PositiveInput: true})
	c.Put(gt)
	if lookupFinal(c, "t", src) == nil {
		t.Error("final not served for bit-identical inputs")
	}
}

func TestFinalNeedsEverySourceServed(t *testing.T) {
	c := New(0)
	src, _, _ := finalFixture(t, c)
	pos, idx := []bool{true, true}, []int{0, 1}
	// A source the caller cannot use (windowed: wrong emission count) is not served, nor is the final.
	never := func([]float64) bool { return false }
	if look := c.LookupAll("fp", src, pos, []FinalWant{{T: "t", Src: idx}}, never, nil); look.Finals[0] != nil {
		t.Error("final served although its sources were rejected")
	}
	// A guard that swallows the source lookups (a contained cache fault) degrades to solving.
	skipStates := func(stage string, f func()) {
		if stage != "state lookup" {
			f()
		}
	}
	if look := c.LookupAll("fp", src, pos, []FinalWant{{T: "t", Src: idx}}, nil, skipStates); look.Finals[0] != nil {
		t.Error("final served although no source state was")
	}
}

func TestFinalDroppedWhenCorrupt(t *testing.T) {
	c := New(0)
	src, srcVals, _ := finalFixture(t, c)
	if n := c.CorruptEntryForTest("fp"); n != 2 {
		t.Fatalf("CorruptEntryForTest = %d states, want 2", n)
	}
	if probeFinal(c, "fp", "t", src) {
		t.Error("ProbeFinal vouches for a corrupt entry")
	}
	// The sweep drops both source states, so the final has nothing to stand on.
	if got := lookupFinal(c, "t", src); got != nil {
		t.Fatalf("final served over corrupt states: %v", got)
	}
	// Recomputed states bring the inputs back; the final's own corruption is
	// caught when it is about to be served.
	gt := mkGT("fp", 3)
	for i, s := range src {
		_ = gt.AddState(&CachedState{State: s, Vals: srcVals[i], PositiveInput: true})
	}
	c.Put(gt)
	c.DrainEvents()
	if probeFinal(c, "fp", "t", src) {
		t.Error("ProbeFinal vouches for a corrupt final")
	}
	if got := lookupFinal(c, "t", src); got != nil {
		t.Fatalf("corrupt final served: %v", got)
	}
	if got := c.Stats().Corruptions; got != 3 {
		t.Errorf("Corruptions = %d, want 3 (two states, one final)", got)
	}
	if evs := c.DrainEvents(); len(evs) != 1 || !strings.Contains(evs[0], "memoized t") {
		t.Errorf("want one degradation event for the final, got %v", evs)
	}
	if gt, _ := entryOf(c, "fp"); gt.NumFinals() != 0 {
		t.Errorf("entry still holds %d finals", gt.NumFinals())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFinalNeedsTheLiveEntry(t *testing.T) {
	c := New(0)
	_, srcVals, col := finalFixture(t, c)
	old, _ := entryOf(c, "fp")
	// Another group set under the fingerprint replaces the entry.
	repl := mkGT("fp", 4)
	_ = repl.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: []float64{1, 2, 3, 4}})
	if c.Put(repl) != repl {
		t.Fatal("a table with another group set must replace the entry")
	}
	if c.StoreFinal(old, "t2", col, sumsOf(srcVals)) != nil {
		t.Error("StoreFinal stored into a replaced entry")
	}
	if len(repl.finals) != 0 {
		t.Error("the replacement inherited finals")
	}
	if c.StoreFinal(repl, "t", col, sumsOf(srcVals)) != nil {
		t.Error("StoreFinal accepted a column of the wrong length")
	}
	c.Remove("fp")
	if c.StoreFinal(repl, "t", []float64{1, 2, 3, 4}, nil) != nil {
		t.Error("StoreFinal stored into a removed entry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFinalLandsInASuccessor: a merge that lands between a query's
// lookup and its StoreFinal swaps in a successor sharing the entry's keys,
// and the column is stored there instead of being lost.
func TestStoreFinalLandsInASuccessor(t *testing.T) {
	c := New(0)
	src, srcVals, _ := finalFixture(t, c)
	read, _ := entryOf(c, "fp")
	more := mkGT("fp", 3)
	_ = more.AddState(&CachedState{State: st(canonical.OpSum, "y"), Vals: []float64{1, 1, 1}})
	if merged := c.Put(more); merged == read || merged == more {
		t.Fatal("Put did not merge into a successor")
	}
	col := []float64{4, 5, 6}
	if c.StoreFinal(read, "t2", col, sumsOf(srcVals)) == nil {
		t.Fatal("StoreFinal lost the column to a concurrent merge")
	}
	if got := lookupFinal(c, "t2", src); len(got) != 3 || &got[0] != &col[0] {
		t.Errorf("final stored beside a merge not served: %v", got)
	}
	if lookupFinal(c, "t", src) == nil {
		t.Error("the successor dropped the earlier final")
	}
}

func TestMergeDeltaSuccessorHasNoFinals(t *testing.T) {
	c := New(0)
	src, _, _ := finalFixture(t, c)
	var prev *GroupTable
	for _, e := range c.Snapshot() {
		prev = e
	}
	delta := map[string][]float64{src[0].Key(): {1}, src[1].Key(): {1}}
	next, err := MergeDelta(prev, "fp2", prev.Keys[:1], prev.KeyCols, delta, map[string]bool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.finals) != 0 {
		t.Fatalf("successor entry carries %d finals", len(next.finals))
	}
	c.Put(next)
	if probeFinal(c, "fp2", "t", src) {
		t.Error("a final crossed into the post-append fingerprint")
	}
}

func TestFinalsRideTheByteBudget(t *testing.T) {
	c := New(6000) // a 64-group, one-state entry is 2560 bytes
	col := make([]float64, 64)
	put := func(fp string) *GroupTable {
		gt := mkGT(fp, 64)
		_ = gt.AddState(&CachedState{State: st(canonical.OpSum, "x"), Vals: col})
		return c.Put(gt)
	}
	a, b := put("a"), put("b")
	before := a.bytes()
	if a = c.StoreFinal(a, "t", col, nil); a == nil {
		t.Fatal("StoreFinal refused")
	}
	if a.bytes() != before+64*8 {
		t.Errorf("final adds %d bytes to its entry, want %d", a.bytes()-before, 64*8)
	}
	// Growing "b" past the budget evicts "a", finals and all; "b" itself stays.
	for i := 0; c.Stats().Evictions == 0; i++ {
		if b = c.StoreFinal(b, strings.Repeat("t", i+1), col, nil); i > 8 || b == nil {
			t.Fatal("the budget never evicted the older entry")
		}
	}
	if _, ok := entryOf(c, "a"); ok {
		t.Error("the entry over budget was not the one evicted")
	}
	if c.StoreFinal(a, "t", col, nil) != nil {
		t.Error("StoreFinal stored into an evicted entry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAllNeverGrowsAnEntry: a shared hit computes r(s) into the
// lookup's result and writes nothing, so a read-only workload leaves the
// byte accounting, the entry's states and the eviction count as they were.
func TestLookupAllNeverGrowsAnEntry(t *testing.T) {
	c := New(6000) // a 64-group, one-state entry is 2560 bytes
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	base := st(canonical.OpSum, "x")
	for _, fp := range []string{"a", "b"} {
		gt := mkGT(fp, 64)
		_ = gt.AddState(&CachedState{State: base, Vals: vals, PositiveInput: true})
		c.Put(gt)
	}
	bytes, evictions := c.Stats().Bytes, c.Stats().Evictions
	// Σ k·x = k·Σ x: every k is a shared hit on "a".
	for k := 2; k <= 9; k++ {
		want := st(canonical.OpSum, "x", scalar.Linear(float64(k)))
		got, kind, ok := lookupKind(c, "a", want, true)
		if !ok || kind != HitShared {
			t.Fatalf("k=%d: want a shared hit, got %v (served %v)", k, kind, ok)
		}
		if got[9] != float64(k*10) {
			t.Errorf("k=%d: group 9 served %v, want %d", k, got[9], k*10)
		}
	}
	if got := c.Stats().Bytes; got != bytes {
		t.Errorf("shared hits moved the cache's bytes from %d to %d", bytes, got)
	}
	if got := c.Stats().Evictions; got != evictions {
		t.Errorf("shared hits evicted %d entries", got-evictions)
	}
	if a, ok := entryOf(c, "a"); !ok || a.NumStates() != 1 {
		t.Errorf("entry a: present %v, want 1 state", ok)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFinalOverASharedSource: a final whose source state is served through
// a rewriting keys on the checksum of the values served. StoreFinal stamps
// that number, so a repeat lookup — which computes r(s) again, with the
// same bits — is served the memoized column, and ProbeFinal says so first.
func TestFinalOverASharedSource(t *testing.T) {
	c := New(0)
	gt := mkGT("fp", 4)
	ln := []float64{0, math.Log(2), math.Log(6), math.Log(24)}
	_ = gt.AddState(&CachedState{State: st(canonical.OpSum, "x", scalar.LogP(scalar.E)), Vals: ln, PositiveInput: true})
	entry := c.Put(gt)
	want := []canonical.State{st(canonical.OpProd, "x")}
	fw := []FinalWant{{T: "t", Src: []int{0}}}
	if c.ProbeFinal("fp", want, []bool{true}, fw[0]) {
		t.Error("ProbeFinal vouches for a final never stored")
	}
	first := c.LookupAll("fp", want, []bool{true}, fw, nil, nil)
	if first.Shared != 1 || first.Finals[0] != nil {
		t.Fatalf("first lookup: %d shared, final %v", first.Shared, first.Finals[0])
	}
	col := []float64{1, 1, 3, 6}
	if c.StoreFinal(entry, "t", col, []uint64{ChecksumVals(first.Vals[0])}) == nil {
		t.Fatal("StoreFinal refused the live entry")
	}
	if !c.ProbeFinal("fp", want, []bool{true}, fw[0]) {
		t.Error("ProbeFinal misses a final LookupAll serves")
	}
	again := c.LookupAll("fp", want, []bool{true}, fw, nil, nil)
	if again.Shared != 1 || again.Finals[0] == nil || &again.Finals[0][0] != &col[0] {
		t.Fatalf("repeat lookup: %d shared, final %v", again.Shared, again.Finals[0])
	}
	if entry.NumStates() != 1 {
		t.Errorf("entry holds %d states, want 1", entry.NumStates())
	}
}
