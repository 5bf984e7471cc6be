package cache

import (
	"errors"
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/faultinject"
	"sudaf/internal/scalar"
)

func TestChecksumVals(t *testing.T) {
	a := ChecksumVals([]float64{1, 2, 3})
	b := ChecksumVals([]float64{1, 2, 3})
	c := ChecksumVals([]float64{1, 2, 3.0000001})
	if a != b {
		t.Error("checksum must be deterministic")
	}
	if a == c {
		t.Error("checksum must detect a changed value")
	}
	if ChecksumVals(nil) != ChecksumVals([]float64{}) {
		t.Error("empty and nil should agree")
	}
}

func TestCorruptionDetectedOnLookup(t *testing.T) {
	c := New(0, nil)
	gt := mkGT("fp", 3)
	s := st(canonical.OpSum, "x", scalar.PowerP(2))
	if err := gt.AddState(&CachedState{State: s, Vals: []float64{1, 4, 9}, PositiveInput: true}); err != nil {
		t.Fatal(err)
	}
	c.Put(gt)

	// Sanity: intact state hits.
	if _, ok := lookup(c, "fp", s, true); !ok {
		t.Fatal("intact state should hit")
	}

	if n := c.CorruptEntryForTest("fp"); n != 1 {
		t.Fatalf("CorruptEntryForTest = %d, want 1", n)
	}
	// The corrupt state must be dropped: lookup misses, never serves bad data.
	if vals, ok := lookup(c, "fp", s, true); ok {
		t.Fatalf("corrupt state served: %v", vals)
	}
	if got := c.Stats().Corruptions; got != 1 {
		t.Errorf("Corruptions = %d, want 1", got)
	}
	evs := c.DrainEvents()
	if len(evs) == 0 || !strings.Contains(evs[0], "integrity") {
		t.Errorf("expected an integrity degradation event, got %v", evs)
	}
	if len(c.DrainEvents()) != 0 {
		t.Error("DrainEvents should clear the queue")
	}
	// Subsequent lookups stay clean misses, not repeated corruption noise.
	if _, ok := lookup(c, "fp", s, true); ok {
		t.Fatal("dropped state resurrected")
	}
	if got := c.Stats().Corruptions; got != 1 {
		t.Errorf("corruption double-counted: %d", got)
	}
}

func TestCorruptionSparesHealthyStates(t *testing.T) {
	c := New(0, nil)
	gt := mkGT("fp", 2)
	s1 := st(canonical.OpSum, "x")
	_ = gt.AddState(&CachedState{State: s1, Vals: []float64{1, 2}, PositiveInput: true})
	c.Put(gt)
	_ = c.CorruptEntryForTest("fp")

	// Add a fresh, healthy state under the same fingerprint.
	gt2 := mkGT("fp", 2)
	s2 := st(canonical.OpSum, "x", scalar.PowerP(2))
	_ = gt2.AddState(&CachedState{State: s2, Vals: []float64{1, 4}, PositiveInput: true})
	c.Put(gt2)

	if _, ok := lookup(c, "fp", s2, true); !ok {
		t.Error("healthy state should survive the corrupt sibling's removal")
	}
	if _, ok := lookup(c, "fp", s1, true); ok {
		t.Error("corrupt state should be gone")
	}
}

func TestInjectedCacheFaultIsMiss(t *testing.T) {
	defer faultinject.Reset()
	c := New(0, nil)
	gt := mkGT("fp", 2)
	s := st(canonical.OpSum, "x")
	_ = gt.AddState(&CachedState{State: s, Vals: []float64{1, 2}, PositiveInput: true})
	c.Put(gt)

	faultinject.Arm(faultinject.PointCacheGet, faultinject.Spec{Kind: faultinject.KindError})
	if _, ok := lookup(c, "fp", s, true); ok {
		t.Fatal("injected cache fault must read as a miss")
	}
	evs := c.DrainEvents()
	if len(evs) == 0 || !strings.Contains(evs[0], "injected") {
		t.Errorf("expected injected-fault event, got %v", evs)
	}

	faultinject.Reset()
	if _, ok := lookup(c, "fp", s, true); !ok {
		t.Fatal("cache should serve normally once the fault clears")
	}
}

func TestInjectedCacheErrorSentinel(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.PointCacheGet, faultinject.Spec{Kind: faultinject.KindError})
	if err := faultinject.Hit(faultinject.PointCacheGet); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sentinel lost: %v", err)
	}
}
