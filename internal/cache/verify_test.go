package cache

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/scalar"
)

// wideEntry caches a 35-state, 200-group entry under "fp": Σx^k for
// k = 1..23 (a moment sketch's power sums) then Σy^k for k = 1..12. It
// returns the states in entry order.
func wideEntry(t testing.TB, c *Cache) []canonical.State {
	t.Helper()
	const groups = 200
	gt := mkGT("fp", groups)
	var states []canonical.State
	for _, b := range []struct {
		base string
		n    int
	}{{"x", 23}, {"y", 12}} {
		for k := 1; k <= b.n; k++ {
			s := st(canonical.OpSum, b.base, scalar.PowerP(float64(k)))
			vals := make([]float64, groups)
			for g := range vals {
				vals[g] = float64(g+1) * float64(k)
			}
			if err := gt.AddState(&CachedState{State: s, Vals: vals, PositiveInput: true}); err != nil {
				t.Fatal(err)
			}
			states = append(states, s)
		}
	}
	c.Put(gt)
	return states
}

// countVerified replaces the checksum hook with one that counts, per
// column, how often a read verified it. Reset the map between reads.
func countVerified(t *testing.T) map[*CachedState]int {
	seen := map[*CachedState]int{}
	verifyState = func(cs *CachedState) bool {
		seen[cs]++
		return cs.verify()
	}
	t.Cleanup(func() { verifyState = (*CachedState).verify })
	return seen
}

func total(seen map[*CachedState]int) int {
	n := 0
	for _, k := range seen {
		n += k
	}
	return n
}

// sharedWant is Σ2x², which only the cached Σx² shares: r(s) = 2s.
func sharedWant() canonical.State {
	return st(canonical.OpSum, "x", scalar.PowerP(2), scalar.Linear(2))
}

// TestLookupVerifiesOnlyWhatItServes: a read checksums the columns it
// serves and no others — two exact states cost two columns, a shared hit
// its one source, a miss nothing, however many states the entry holds —
// and batch planning's per-state probes verify no column twice.
func TestLookupVerifiesOnlyWhatItServes(t *testing.T) {
	c := New(0)
	states := wideEntry(t, c)
	seen := countVerified(t)
	pos := func(n int) []bool {
		p := make([]bool, n)
		for i := range p {
			p[i] = true
		}
		return p
	}
	for _, tc := range []struct {
		name     string
		want     []canonical.State
		verified int
		served   int
	}{
		{"two exact states", []canonical.State{states[0], states[30]}, 2, 2},
		{"moment sketch", states[:23], 23, 23},
		{"shared hit", []canonical.State{sharedWant()}, 1, 1},
		{"full miss", []canonical.State{st(canonical.OpSum, "z")}, 0, 0},
		{"one source for two wants", []canonical.State{states[1], sharedWant()}, 1, 2},
	} {
		clear(seen)
		look := c.LookupAll("fp", tc.want, pos(len(tc.want)), nil, nil, nil)
		served := slices.IndexFunc(look.Vals, func(v []float64) bool { return v == nil })
		if served < 0 {
			served = len(look.Vals)
		}
		if total(seen) != tc.verified || look.Verified != tc.verified || served != tc.served {
			t.Errorf("%s: verified %d columns (Lookups.Verified %d), served %d; want %d verified, %d served",
				tc.name, total(seen), look.Verified, served, tc.verified, tc.served)
		}
	}

	// Batch planning: eight members, each probing its states once — an
	// exact state, a shared one and a miss — as planOneState does.
	for m := 0; m < 8; m++ {
		for _, want := range []canonical.State{
			states[m], states[23+m], sharedWant(), st(canonical.OpSum, "z", scalar.PowerP(float64(m+1))),
		} {
			clear(seen)
			pr := c.Probe("fp", want, true)
			for cs, n := range seen {
				if n > 1 {
					t.Errorf("member %d probe of %s verified %s %d times", m, want.Key(), cs.State.Key(), n)
				}
			}
			served := 0
			if pr.Kind != HitNone {
				served = 1
			}
			if total(seen) != served {
				t.Errorf("member %d probe of %s (%v) verified %d columns", m, want.Key(), pr.Kind, total(seen))
			}
		}
	}
	if got := c.Stats().Corruptions; got != 0 {
		t.Errorf("Corruptions = %d on a healthy entry", got)
	}
}

// TestLookupAllServesAroundAnUnwantedCorruptColumn: corruption is found
// when a read is about to serve it. A corrupt column no lookup wants costs
// nothing and says nothing; the first lookup that wants it misses, records
// one event and drops it, and later lookups miss quietly.
func TestLookupAllServesAroundAnUnwantedCorruptColumn(t *testing.T) {
	c := New(0)
	states := wideEntry(t, c)
	bad := states[27]
	if n := c.CorruptEntryForTest("fp", bad.Key()); n != 1 {
		t.Fatalf("CorruptEntryForTest = %d, want 1", n)
	}
	others := []canonical.State{states[0], states[26], states[28], sharedWant()}
	for rep := 0; rep < 2; rep++ {
		look := c.LookupAll("fp", others, []bool{true, true, true, true}, nil, nil, nil)
		if look.Exact != 3 || look.Shared != 1 || slices.ContainsFunc(look.Vals, func(v []float64) bool { return v == nil }) {
			t.Fatalf("healthy states beside a corrupt one: exact=%d shared=%d misses=%d", look.Exact, look.Shared, look.Misses)
		}
	}
	if pr := c.Probe("fp", bad, true); pr.Kind != HitNone {
		t.Errorf("Probe predicts %v for a corrupt column", pr.Kind)
	}
	if evs := c.DrainEvents(); len(evs) != 0 {
		t.Errorf("unwanted corruption recorded events: %v", evs)
	}
	if st := c.Stats(); st.Corruptions != 0 {
		t.Errorf("unwanted corruption counted: %+v", st)
	}
	if gt, _ := entryOf(c, "fp"); gt.NumStates() != 35 {
		t.Errorf("entry holds %d states before any lookup wanted the corrupt one", gt.NumStates())
	}

	look := c.LookupAll("fp", []canonical.State{states[0], bad}, []bool{true, true}, nil, nil, nil)
	if look.Vals[0] == nil || look.Vals[1] != nil || look.Misses != 1 {
		t.Fatalf("lookup wanting the corrupt column: exact=%d misses=%d", look.Exact, look.Misses)
	}
	evs := c.DrainEvents()
	if len(evs) != 1 || !strings.Contains(evs[0], bad.Key()) || !strings.Contains(evs[0], "integrity") {
		t.Errorf("want one integrity event naming %s, got %v", bad.Key(), evs)
	}
	if got := c.Stats().Corruptions; got != 1 {
		t.Errorf("Corruptions = %d, want 1", got)
	}
	if _, ok := lookup(c, "fp", bad, true); ok {
		t.Error("dropped state resurrected")
	}
	if evs := c.DrainEvents(); len(evs) != 0 || c.Stats().Corruptions != 1 {
		t.Errorf("a dropped state reported again: %v", evs)
	}
	if gt, _ := entryOf(c, "fp"); gt.NumStates() != 34 {
		t.Errorf("entry holds %d states, want 34", gt.NumStates())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAllCorruptSourceFallsThrough: a shared hit whose would-be
// source is corrupt is served by the next healthy sharer in entry order,
// or misses, exactly as if the corrupt source had never been stored.
func TestLookupAllCorruptSourceFallsThrough(t *testing.T) {
	want := st(canonical.OpSum, "x")
	two := st(canonical.OpSum, "x", scalar.Linear(2))
	four := st(canonical.OpSum, "x", scalar.Linear(4))
	build := func(corrupt []canonical.State, stored ...canonical.State) *Cache {
		c := New(0)
		gt := mkGT("fp", 3)
		for _, s := range stored {
			scale := 2.0
			if s.Key() == four.Key() {
				scale = 4
			}
			_ = gt.AddState(&CachedState{State: s, Vals: []float64{1.5 * scale, 2.5 * scale, 7 * scale}, PositiveInput: true})
		}
		c.Put(gt)
		for _, s := range corrupt {
			if c.CorruptEntryForTest("fp", s.Key()) != 1 {
				t.Fatalf("could not corrupt %s", s.Key())
			}
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		corrupt []canonical.State
		never   []canonical.State // the same entry without the corrupt states
	}{
		{"first sharer corrupt", []canonical.State{two}, []canonical.State{four}},
		{"every sharer corrupt", []canonical.State{two, four}, nil},
	} {
		c := build(tc.corrupt, two, four)
		ref := build(nil, tc.never...)
		pr, prRef := c.Probe("fp", want, true), ref.Probe("fp", want, true)
		got, kind, _ := lookupKind(c, "fp", want, true)
		refVals, refKind, _ := lookupKind(ref, "fp", want, true)
		if pr.Kind != prRef.Kind || pr.Matched != prRef.Matched || pr.Rewrite != prRef.Rewrite || kind != refKind {
			t.Errorf("%s: probe %v from %q, lookup %v; never stored: probe %v from %q, lookup %v",
				tc.name, pr.Kind, pr.Matched, kind, prRef.Kind, prRef.Matched, refKind)
		}
		if len(got) != len(refVals) {
			t.Fatalf("%s: served %v, never stored serves %v", tc.name, got, refVals)
		}
		for g := range got {
			if math.Float64bits(got[g]) != math.Float64bits(refVals[g]) {
				t.Errorf("%s: group %d: %v, never stored %v", tc.name, g, got[g], refVals[g])
			}
		}
		if n := int(c.Stats().Corruptions); n != len(tc.corrupt) {
			t.Errorf("%s: Corruptions = %d, want %d", tc.name, n, len(tc.corrupt))
		}
	}
}

// TestCandidatesLeaveOutCorruptStates: EXPLAIN's candidate list names the
// healthy states in entry order, without dropping or counting anything.
func TestCandidatesLeaveOutCorruptStates(t *testing.T) {
	c := New(0)
	states := wideEntry(t, c)
	if keys, ok := c.Candidates("nothing"); ok || keys != nil {
		t.Errorf("Candidates without an entry = %v, %v", keys, ok)
	}
	_ = c.CorruptEntryForTest("fp", states[0].Key(), states[34].Key())
	keys, ok := c.Candidates("fp")
	if !ok || len(keys) != 33 || keys[0] != states[1].Key() || keys[32] != states[33].Key() {
		t.Errorf("Candidates = %d keys (%v), want states 1..33 in entry order", len(keys), ok)
	}
	if st := c.Stats(); st.Corruptions != 0 || len(c.DrainEvents()) != 0 {
		t.Errorf("Candidates must have no side effect: %+v", st)
	}
	if gt, _ := entryOf(c, "fp"); gt.NumStates() != 35 {
		t.Errorf("Candidates dropped states: %d left", gt.NumStates())
	}
	c = New(0)
	_ = wideEntry(t, c)
	_ = c.CorruptEntryForTest("fp")
	if keys, ok := c.Candidates("fp"); !ok || len(keys) != 0 {
		t.Errorf("Candidates over an all-corrupt entry = %v, %v", keys, ok)
	}
}

// BenchmarkLookupAll times the warm reads against a 35-column, 200-group
// entry: a 2-state exact hit, a 23-state moment-sketch hit, a shared hit
// and the probe batch planning makes per member state.
func BenchmarkLookupAll(b *testing.B) {
	c := New(0)
	states := wideEntry(b, c)
	all := make([]bool, 23)
	for i := range all {
		all[i] = true
	}
	for _, bc := range []struct {
		name string
		want []canonical.State
	}{
		{"exact2", []canonical.State{states[0], states[30]}},
		{"sketch23", states[:23]},
		{"shared", []canonical.State{sharedWant()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if look := c.LookupAll("fp", bc.want, all[:len(bc.want)], nil, nil, nil); look.Misses != 0 {
					b.Fatal("miss")
				}
			}
		})
	}
	b.Run("probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c.Probe("fp", states[5], true).Kind != HitExact {
				b.Fatal("miss")
			}
		}
	})
}
