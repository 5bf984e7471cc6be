package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/sharing"
	"sudaf/internal/storage"
	"sudaf/internal/symbolic"
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
// LookupKind: over every generated (cached, wanted) pair — with and
// without the precomputed symbolic space — Probe predicts the kind the
// following LookupKind returns, leaves stats, entry contents and
// eviction order untouched, and reports "exact" once a shared hit has
// stored the derived state. Each candidate gets exactly one direct
// sharing decision per resolution.
func TestQuickLookupNeverLies(t *testing.T) {
	exps := []float64{1, 2, 3}
	scales := []float64{1, 2, 4}
	spaces := []*symbolic.Space{nil, symbolic.NewSpace(2)}
	decisions, kinds := 0, map[HitKind]int{}
	shareDetail = func(s1, s2 canonical.State, pos bool) (sharing.Decision, bool) {
		decisions++
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

		for _, space := range spaces {
			// One stripe, so "fp" and "other" share an LRU order a touch
			// would visibly reorder.
			c := newSharded(0, 1, space)
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
			c.Put(gt)
			c.Put(NewGroupTable("other", []string{"g"}, keys, []*storage.Column{kc}))

			stats, order := c.Stats(), append([]string(nil), c.shards[0].order...)
			decisions = 0
			pr := c.Probe("fp", st1, true)
			if decisions > 1 {
				return false // one cached candidate: at most one direct decision
			}
			if c.Stats() != stats || gt.NumStates() != 1 || !reflect.DeepEqual(c.shards[0].order, order) {
				return false // Probe must be free of observable side effects
			}
			decisions = 0
			got, kind, ok := lookupKind(c, "fp", st1, true)
			if decisions > 1 || kind != pr.Kind {
				return false
			}
			kinds[kind]++
			want := evalState(e1, a1)
			if !ok {
				// A miss is always safe; it only happens when e1 ≠ e2.
				if e1 == e2 {
					return false
				}
				continue
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
			// A shared hit stored the derived state: now it is exact.
			if c.Probe("fp", st1, true).Kind != HitExact {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if kinds[HitNone] == 0 || kinds[HitExact] == 0 || kinds[HitShared] == 0 {
		t.Errorf("generator must cover miss, exact and shared outcomes, got %v", kinds)
	}
}
