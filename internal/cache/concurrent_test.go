package cache

// Randomized concurrency property tests for the striped cache. The
// properties checked:
//
//   - byte accounting never goes negative and matches entry sizes at
//     quiescence, even under eviction pressure;
//   - checksum integrity: a corrupted state is never served as an exact
//     hit — lookups return either the deterministic expected values or
//     nothing;
//   - no stats increments are lost: every state lookup lands in
//     exactly one outcome counter.
//
// Values are made deterministic per (fingerprint, state, group) so that
// any exact hit can be verified against the closed form, regardless of
// which goroutine populated the entry. The exact-check fingerprints use
// states with pairwise-distinct bases so no sharing rewriting can relate
// them (a derived state would have values the closed form doesn't
// predict); sharing is exercised on a disjoint fingerprint pool with
// mathematically consistent values checked under tolerance.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/scalar"
	"sudaf/internal/symbolic"
)

// exactVal is the closed form for values in the exact-check pool.
func exactVal(fpIdx, stIdx, group int) float64 {
	return float64((fpIdx+1)*1000 + stIdx*10 + group)
}

// exactState returns state stIdx over its own private base column, so
// states never share with each other.
func exactState(stIdx int) canonical.State {
	return st(canonical.OpSum, fmt.Sprintf("x%d", stIdx))
}

func putExact(c *Cache, fpIdx, nStates int) {
	fp := fmt.Sprintf("fp%d", fpIdx)
	gt := mkGT(fp, 8)
	for j := 0; j < nStates; j++ {
		vals := make([]float64, 8)
		for g := range vals {
			vals[g] = exactVal(fpIdx, j, g)
		}
		_ = gt.AddState(&CachedState{State: exactState(j), Vals: vals})
	}
	c.Put(gt)
}

// The sharing pool caches Σ ln x with vals ln(g+1); a lookup for Π x is
// served by the exp rewriting, so any hit must be ≈ g+1.
func putShared(c *Cache, fpIdx int) {
	fp := fmt.Sprintf("sh%d", fpIdx)
	gt := mkGT(fp, 8)
	vals := make([]float64, 8)
	for g := range vals {
		vals[g] = math.Log(float64(g + 1))
	}
	_ = gt.AddState(&CachedState{
		State:         st(canonical.OpSum, "x", scalar.LogP(scalar.E)),
		Vals:          vals,
		PositiveInput: true,
	})
	c.Put(gt)
}

func TestConcurrentCacheProperty(t *testing.T) {
	space := symbolic.NewSpace(2)
	// Small budget: with ~20 fingerprints of ~1.2 KiB spread over 8
	// shards, eviction churns constantly.
	c := newSharded(64*1024, 8, space)

	const goroutines = 8
	const opsPerG = 400
	const nFPs = 16
	const nStates = 4
	var lookupsIssued atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			for op := 0; op < opsPerG; op++ {
				switch rng.Intn(10) {
				case 0, 1:
					putExact(c, rng.Intn(nFPs), 1+rng.Intn(nStates))
				case 2, 3, 4:
					fpIdx, stIdx := rng.Intn(nFPs), rng.Intn(nStates)
					fp := fmt.Sprintf("fp%d", fpIdx)
					lookupsIssued.Add(1)
					vals, kind, ok := lookupKind(c, fp, exactState(stIdx), false)
					if !ok {
						continue
					}
					if kind != HitExact {
						errCh <- fmt.Errorf("exact pool served a %v hit", kind)
						return
					}
					for g, v := range vals {
						if v != exactVal(fpIdx, stIdx, g) {
							errCh <- fmt.Errorf("%s state %d group %d: got %v, want %v (corrupt value served?)",
								fp, stIdx, g, v, exactVal(fpIdx, stIdx, g))
							return
						}
					}
				case 5:
					// Entry reads: the key structure is immutable after
					// construction, so these are safe concurrent reads.
					if gt, ok := entryOf(c, fmt.Sprintf("fp%d", rng.Intn(nFPs))); ok {
						if gt.NumGroups() != 8 {
							errCh <- fmt.Errorf("entry has %d groups, want 8", gt.NumGroups())
							return
						}
					}
				case 6:
					putShared(c, rng.Intn(4))
				case 7:
					fp := fmt.Sprintf("sh%d", rng.Intn(4))
					lookupsIssued.Add(1)
					vals, _, ok := lookupKind(c, fp, st(canonical.OpProd, "x"), true)
					if !ok {
						continue
					}
					for g, v := range vals {
						if math.Abs(v-float64(g+1)) > 1e-9 {
							errCh <- fmt.Errorf("%s Πx group %d: got %v, want ≈%d", fp, g, v, g+1)
							return
						}
					}
				case 8:
					// Corruption chaos: checksums must keep corrupt values
					// from ever being served (checked by the exact lookups).
					if rng.Intn(8) == 0 {
						c.CorruptEntryForTest(fmt.Sprintf("fp%d", rng.Intn(nFPs)))
					}
					_ = c.DrainEvents()
				case 9:
					s := c.Stats()
					if s.Lookups < 0 || s.Evictions < 0 {
						errCh <- fmt.Errorf("negative counters: %+v", s)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiescent invariants: structural integrity, byte accounting, LRU
	// bookkeeping and counter balance (CheckInvariants verifies
	// Lookups == Exact+Shared+Sign+Misses).
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// No lost increments: the cache saw exactly the lookups we issued.
	// (Shared hits materialize derived states internally without touching
	// the lookup counter, so this is an equality, not a lower bound.)
	if got := c.Stats().Lookups; got != lookupsIssued.Load() {
		t.Fatalf("cache counted %d lookups, test issued %d", got, lookupsIssued.Load())
	}
}

// TestConcurrentResetStats pins that ResetStats racing with traffic
// leaves counters consistent once traffic stops: counters never go
// negative and the quiescent balance invariant holds.
func TestConcurrentResetStats(t *testing.T) {
	space := symbolic.NewSpace(2)
	c := newSharded(1<<20, 4, space)
	putExact(c, 0, 2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.ResetStats()
			}
		}
	}()
	for i := 0; i < 500; i++ {
		lookupKind(c, "fp0", exactState(i%2), false)
		if s := c.Stats(); s.Lookups < 0 || s.ExactHits < 0 || s.Misses < 0 {
			t.Fatalf("negative counters under concurrent reset: %+v", s)
		}
	}
	close(stop)
	wg.Wait()
	c.ResetStats()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutSameFingerprint hammers one fingerprint from many
// goroutines (the merge-into-existing-entry path) and checks the entry
// ends structurally sound with correct byte accounting.
func TestConcurrentPutSameFingerprint(t *testing.T) {
	space := symbolic.NewSpace(2)
	c := newSharded(1<<20, 4, space)
	var wg sync.WaitGroup
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				putExact(c, 3, 1+(gi+i)%4)
			}
		}(gi)
	}
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	gt, ok := entryOf(c, "fp3")
	if !ok {
		t.Fatal("entry evicted from an empty cache")
	}
	for j := 0; j < 4; j++ {
		if vals, _, ok := lookupKind(c, "fp3", exactState(j), false); ok {
			for g, v := range vals {
				if v != exactVal(3, j, g) {
					t.Fatalf("state %d group %d: got %v, want %v", j, g, v, exactVal(3, j, g))
				}
			}
		}
	}
	if gt.NumGroups() != 8 {
		t.Fatalf("merged entry has %d groups, want 8", gt.NumGroups())
	}
}

// TestLookupAllIsOneCriticalSection pins the atomicity of the lookup
// half: the entry and every wanted state are read under one hold of the
// shard lock, so no Put can land between them. The guard callback is the
// seam — it runs between the entry fetch and each state's resolution, and
// when it finds the shard lock free it plays the concurrent query whose
// Put used to slip in there, leaving states served with no entry to
// order them.
func TestLookupAllIsOneCriticalSection(t *testing.T) {
	c := New(0, nil)
	s := st(canonical.OpSum, "x")
	unlocked := 0
	guard := func(_ string, f func()) {
		f()
		if sh := c.shardFor("fp"); sh.mu.TryLock() {
			sh.mu.Unlock()
			unlocked++
			gt := mkGT("fp", 2)
			_ = gt.AddState(&CachedState{State: s, Vals: []float64{1, 2}})
			c.Put(gt)
		}
	}
	look := c.LookupAll("fp", []canonical.State{s}, []bool{true}, nil, nil, guard)
	if unlocked > 0 {
		t.Errorf("the shard lock was free at %d of the lookup's steps", unlocked)
	}
	if look.Entry == nil && look.Vals[0] != nil {
		t.Error("a state was served without the entry that orders its values")
	}

	// A lookup that also wants a memoized column reads it in the same hold:
	// the guard sees the final's step too, still with the lock taken.
	gt := mkGT("fp", 2)
	_ = gt.AddState(&CachedState{State: s, Vals: []float64{1, 2}})
	c.StoreFinal(c.Put(gt), "t", []float64{7, 8}, []uint64{ChecksumVals([]float64{1, 2})})
	steps := 0
	counting := func(stage string, f func()) { steps++; guard(stage, f) }
	look = c.LookupAll("fp", []canonical.State{s}, []bool{true}, []FinalWant{{T: "t", Src: []int{0}}}, nil, counting)
	if unlocked > 0 {
		t.Errorf("the shard lock was free at %d of the steps of a lookup wanting a final", unlocked)
	}
	if steps != 3 || look.Finals[0] == nil || look.Finals[0][1] != 8 {
		t.Errorf("want entry, state and final steps and the stored column; got %d steps, final %v", steps, look.Finals[0])
	}
}
