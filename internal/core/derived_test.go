package core

import (
	"context"
	"slices"
	"testing"
)

// A shared or sign-split cache hit computes r(s) when it is read and
// stores nothing. These tests pin what that means past the lookup: the
// cache entry keeps only the states computed from base data, so a Save
// persists only those and an Append maintains only those, while EXPLAIN
// keeps reporting the repeated state as shared.

const (
	gmQ     = "SELECT g, gm(x) FROM m GROUP BY g ORDER BY g"            // computes Π x and count
	lnprodQ = "SELECT g, lnprod(x) FROM m GROUP BY g ORDER BY g"        // Σ ln x = ln(Π x)
	medianQ = "SELECT g, approx_median(x) FROM m GROUP BY g ORDER BY g" // reads Σ ln x among the sketch states
)

// sharedHitEntry runs gmQ in Share mode, then lnprodQ twice: full cache
// hits, the first of them served by a Theorem 4.1 rewriting. It returns
// the entry's state keys as the gm query left them.
func sharedHitEntry(t *testing.T, s *Session) []string {
	t.Helper()
	if err := s.DefineUDAF("lnprod", []string{"x"}, "sum(ln(x))"); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, s, gmQ, ModeShare)
	gt, ok := cacheEntry(s.Cache(), fingerprintOf(t, s, gmQ))
	if !ok {
		t.Fatal("no cache entry after the gm query")
	}
	computed := gt.StateKeys()
	for i := 0; i < 2; i++ {
		res := mustQuery(t, s, lnprodQ, ModeShare)
		if !res.FullCacheHit || (i == 0 && res.Stats.CacheSharedHits != 1) {
			t.Fatalf("lnprod run %d: full hit %v, stats %+v; want a full hit, shared the first time", i, res.FullCacheHit, res.Stats)
		}
	}
	return computed
}

func TestPersistSaveAfterSharedHit(t *testing.T) {
	dir := t.TempDir()
	s := memoSession(t, Options{DataDir: dir})
	computed := sharedHitEntry(t, s)
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	fp := fingerprintOf(t, s, gmQ)
	var saved []string
	for _, e := range readCacheSnapshot(t, dir).Entries {
		if e.Fingerprint == fp {
			for _, ps := range e.States {
				st, err := stateFromPersisted(ps)
				if err != nil {
					t.Fatal(err)
				}
				saved = append(saved, st.Key())
			}
		}
	}
	if !slices.Equal(saved, computed) {
		t.Errorf("snapshot holds states %v, want only the computed %v", saved, computed)
	}
}

func TestAppendAfterSharedHit(t *testing.T) {
	s := memoSession(t, Options{})
	computed := sharedHitEntry(t, s)
	res, err := s.Append(context.Background(), "m", memoTable(48, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.EntriesMigrated != 1 || res.StatesMaintained != len(computed) {
		t.Errorf("append migrated %d entries and maintained %d states, want 1 and %d (%v)",
			res.EntriesMigrated, res.StatesMaintained, len(computed), res.Events)
	}
	// The maintained entry still serves lnprod through the rewriting.
	after := mustQuery(t, s, lnprodQ, ModeShare)
	ref := mustQuery(t, s, lnprodQ, ModeRewrite)
	if !after.FullCacheHit || after.Stats.CacheSharedHits != 1 {
		t.Errorf("post-append lnprod: full hit %v, stats %+v", after.FullCacheHit, after.Stats)
	}
	tablesEqual(t, ref.Table, after.Table, "post-append lnprod: share vs rewrite")
}

// TestExplainFinalOverSharedState: the quantile query's Σ ln x is served
// from the cached Π x every time, and EXPLAIN says so with the same r on
// every run. It says "T: memoized" exactly when the next LookupAll serves
// the final: not after the first quantile run (which stores no final,
// because it merged into an entry it did not create), and from the
// second run on (a full hit, which stores the final over r(s)'s bits).
func TestExplainFinalOverSharedState(t *testing.T) {
	s := memoSession(t, Options{})
	mustQuery(t, s, gmQ, ModeShare)
	var rewrite string
	var prev *Result
	for run := 0; run < 4; run++ {
		ex, err := s.ExplainQuery(medianQ, ModeShare)
		if err != nil {
			t.Fatal(err)
		}
		shared := 0
		for _, es := range ex.States {
			if es.Hit != "shared" {
				continue
			}
			shared++
			if rewrite == "" {
				rewrite = es.Rewrite
			}
			if es.Rewrite != rewrite || es.Rewrite == "" {
				t.Errorf("run %d: shared state %s via %q, want %q", run, es.Key, es.Rewrite, rewrite)
			}
		}
		if shared != 1 {
			t.Fatalf("run %d: EXPLAIN shows %d shared states, want 1 (%+v)", run, shared, ex.States)
		}
		memoized := ex.Aggregates[0].HardT == "memoized"
		res := mustQuery(t, s, medianQ, ModeShare)
		if res.Stats.CacheSharedHits != 1 {
			t.Errorf("run %d: %d shared hits, want 1", run, res.Stats.CacheSharedHits)
		}
		served := finisherAttr(t, res, "memo_hits") == 1
		if memoized != served {
			t.Errorf("run %d: EXPLAIN says T %s, but the lookup served the final: %v", run, ex.Aggregates[0].HardT, served)
		}
		if want := run >= 2; served != want {
			t.Errorf("run %d: final served %v, want %v", run, served, want)
		}
		if prev != nil {
			tablesBitIdentical(t, prev.Table, res.Table, "repeat quantile run")
		}
		prev = res
	}
}
