package cache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/sharing"
	"sudaf/internal/storage"
)

// TestQuickAlignRoundTrip: for any permutation of group keys, Align
// restores value/key correspondence.
func TestQuickAlignRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		rng := rand.New(rand.NewSource(seed))
		keys := make([]GroupKey, n)
		vals := make([]float64, n)
		kc := storage.NewColumn("g", storage.KindInt)
		for i := 0; i < n; i++ {
			keys[i] = GroupKey{int64(i) * 7, int64(i) % 3}
			vals[i] = float64(i) * 1.5
			kc.AppendInt(int64(i))
		}
		gt := NewGroupTable("fp", []string{"g"}, keys, []*storage.Column{kc})
		// Shuffle (keys, vals) jointly; Align must invert the shuffle.
		perm := rng.Perm(n)
		shKeys := make([]GroupKey, n)
		shVals := make([]float64, n)
		for i, p := range perm {
			shKeys[i] = keys[p]
			shVals[i] = vals[p]
		}
		aligned, ok := gt.Align(shKeys, shVals)
		if !ok {
			return false
		}
		for i := range aligned {
			if aligned[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAlignRejectsForeignKeys: aligning values keyed by a different
// group set must fail rather than silently misattribute.
func TestQuickAlignRejectsForeignKeys(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		keys := make([]GroupKey, n)
		kc := storage.NewColumn("g", storage.KindInt)
		for i := 0; i < n; i++ {
			keys[i] = GroupKey{int64(i), 0}
			kc.AppendInt(int64(i))
		}
		gt := NewGroupTable("fp", []string{"g"}, keys, []*storage.Column{kc})
		foreign := make([]GroupKey, n)
		copy(foreign, keys)
		foreign[n-1] = GroupKey{9999, 9999}
		_, ok := gt.Align(foreign, make([]float64, n))
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLookupNeverLies: whatever state is requested, a successful
// lookup must return values consistent with directly evaluating the
// state over synthetic per-group multisets. And Probe must not lie about
// LookupKind: over every generated (cached, wanted) pair, Probe predicts
// the kind the following LookupKind returns and leaves stats, entry
// contents and eviction order untouched. A lookup writes nothing either,
// so a repeat Probe predicts the same kind again and the repeat lookup
// serves the same bits. Each candidate gets exactly one direct sharing
// decision per resolution. Beside the candidate the entry holds states
// over another column, some randomly corrupted: no lookup wants them, so
// they change nothing — no event, no Corruptions count, nothing dropped —
// until a lookup wants one, which then misses and reports it once.
func TestQuickLookupNeverLies(t *testing.T) {
	exps := []float64{1, 2, 3}
	scales := []float64{1, 2, 4}
	decisions, kinds := 0, map[HitKind]int{}
	var cand string // the one candidate that can share with the wanted state
	shareDetail = func(s1, s2 canonical.State, pos bool) (sharing.Decision, bool) {
		if s2.Key() == cand {
			decisions++
		}
		return sharing.ShareDetail(s1, s2, pos)
	}
	defer func() { shareDetail = sharing.ShareDetail }()
	f := func(seed int64, e1Raw, e2Raw uint8) bool {
		e1 := exps[int(e1Raw)%len(exps)]
		e2 := exps[int(e2Raw)%len(exps)]
		rng := rand.New(rand.NewSource(seed))
		// Σ a·x^e: equal exponents share through r(s) = (a1/a2)·s.
		a1, a2 := scales[rng.Intn(len(scales))], scales[rng.Intn(len(scales))]
		const groups = 5
		// Per-group random positive multisets.
		data := make([][]float64, groups)
		for g := range data {
			m := make([]float64, 3+rng.Intn(4))
			for i := range m {
				m[i] = 0.5 + rng.Float64()*3
			}
			data[g] = m
		}
		evalState := func(exp, scale float64) []float64 {
			out := make([]float64, groups)
			for g, m := range data {
				acc := 0.0
				for _, x := range m {
					v := x
					for k := 1; k < int(exp); k++ {
						v *= x
					}
					acc += scale * v
				}
				out[g] = acc
			}
			return out
		}
		st1 := canonical.State{Op: canonical.OpSum, F: scalar.NewChain(scalar.PowerP(e1), scalar.Linear(a1)), Base: &expr.Var{Name: "x"}}
		st2 := canonical.State{Op: canonical.OpSum, F: scalar.NewChain(scalar.PowerP(e2), scalar.Linear(a2)), Base: &expr.Var{Name: "x"}}
		cand = st2.Key()

		// "fp" and "other" share the LRU order, which a touch would
		// visibly reorder.
		c := New(0)
		keys := make([]GroupKey, groups)
		kc := storage.NewColumn("g", storage.KindInt)
		for g := 0; g < groups; g++ {
			keys[g] = GroupKey{int64(g), 0}
			kc.AppendInt(int64(g))
		}
		gt := NewGroupTable("fp", []string{"g"}, keys, []*storage.Column{kc})
		if err := gt.AddState(&CachedState{State: st2, Vals: evalState(e2, a2), PositiveInput: true}); err != nil {
			return false
		}
		// Unwanted states over y, before or after the candidate in entry
		// order; any of them may be corrupt.
		var unwanted []string
		for k := 0; k < 1+rng.Intn(4); k++ {
			sy := canonical.State{Op: canonical.OpSum, F: scalar.NewChain(scalar.PowerP(float64(k + 1))), Base: &expr.Var{Name: "y"}}
			if err := gt.AddState(&CachedState{State: sy, Vals: evalState(float64(k+1), 1), PositiveInput: true}); err != nil {
				return false
			}
			unwanted = append(unwanted, sy.Key())
		}
		if rng.Intn(2) == 0 { // move the candidate behind the unwanted states
			cs, _ := gt.Exact(cand)
			gt.dropState(cand)
			_ = gt.AddState(cs)
		}
		states := gt.NumStates()
		c.Put(gt)
		c.Put(NewGroupTable("other", []string{"g"}, keys, []*storage.Column{kc}))
		var corrupt []string
		for _, k := range unwanted {
			if rng.Intn(2) == 0 {
				corrupt = append(corrupt, k)
			}
		}
		if len(corrupt) > 0 && c.CorruptEntryForTest("fp", corrupt...) != len(corrupt) {
			return false
		}

		stats, order := c.Stats(), recency(c)
		decisions = 0
		pr := c.Probe("fp", st1, true)
		if decisions > 1 {
			return false // one cached candidate: at most one direct decision
		}
		if c.Stats() != stats || c.entry("fp", false).NumStates() != states || !reflect.DeepEqual(recency(c), order) {
			return false // Probe must be free of observable side effects
		}
		decisions = 0
		got, kind, ok := lookupKind(c, "fp", st1, true)
		if decisions > 1 || kind != pr.Kind || c.entry("fp", false).NumStates() != states {
			return false
		}
		kinds[kind]++
		want := evalState(e1, a1)
		if !ok {
			// A miss is always safe; it only happens when e1 ≠ e2.
			return e1 != e2 && unwantedCorruptionIsLazy(c, corrupt)
		}
		for g := range want {
			diff := got[g] - want[g]
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6*(1+want[g]) {
				return false
			}
		}
		// The lookup stored nothing: a repeat is predicted and served alike.
		if c.Probe("fp", st1, true).Kind != kind {
			return false
		}
		again, kind2, _ := lookupKind(c, "fp", st1, true)
		if kind2 != kind || c.entry("fp", false).NumStates() != states {
			return false
		}
		for g := range got {
			if math.Float64bits(again[g]) != math.Float64bits(got[g]) {
				return false
			}
		}
		return unwantedCorruptionIsLazy(c, corrupt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if kinds[HitNone] == 0 || kinds[HitExact] == 0 || kinds[HitShared] == 0 {
		t.Errorf("generator must cover miss, exact and shared outcomes, got %v", kinds)
	}
}

// unwantedCorruptionIsLazy checks that the corrupt states no lookup wanted
// under "fp" have cost nothing so far, then that wanting each one misses,
// drops it and records exactly one event.
func unwantedCorruptionIsLazy(c *Cache, corrupt []string) bool {
	if c.Stats().Corruptions != 0 || len(c.DrainEvents()) != 0 {
		return false
	}
	states := c.entry("fp", false).NumStates()
	for i, key := range corrupt {
		cs, ok := c.entry("fp", false).Exact(key)
		if !ok {
			return false
		}
		if _, hit := lookup(c, "fp", cs.State, true); hit {
			return false
		}
		if c.Stats().Corruptions != int64(i+1) || len(c.DrainEvents()) != 1 || c.entry("fp", false).NumStates() != states-i-1 {
			return false
		}
	}
	return true
}

// recency lists the cached fingerprints, most recently used first.
func recency(c *Cache) []string {
	var fps []string
	for _, gt := range c.Snapshot() {
		fps = append(fps, gt.Fingerprint)
	}
	return fps
}
