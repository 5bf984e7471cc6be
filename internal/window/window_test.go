package window

import (
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
)

// refFold is the test's independent reference: the executor's cold
// chunked fold over the window contents in chronological order. Every
// Value() — fast path or fallback — must match it bit-for-bit.
func refFold(st canonical.State, chunk int, vals []float64) float64 {
	update := func(acc, v float64) float64 {
		switch st.Op {
		case canonical.OpProd:
			return acc * v
		case canonical.OpMin:
			if v < acc || v != v {
				return v
			}
			return acc
		case canonical.OpMax:
			if v > acc || v != v {
				return v
			}
			return acc
		default:
			return acc + v
		}
	}
	acc := st.MergeIdentity()
	cacc := st.MergeIdentity()
	n := 0
	for _, v := range vals {
		cacc = update(cacc, v)
		n++
		if chunk > 0 && n == chunk {
			acc = st.Merge(acc, cacc)
			cacc = st.MergeIdentity()
			n = 0
		}
	}
	if n > 0 {
		acc = st.Merge(acc, cacc)
	}
	return acc
}

func ops() []canonical.State {
	return []canonical.State{
		{Op: canonical.OpCount},
		{Op: canonical.OpSum},
		{Op: canonical.OpProd},
		{Op: canonical.OpMin},
		{Op: canonical.OpMax},
	}
}

// exactVal draws a value from the op's association-free class, so the
// O(1) two-stacks path stays eligible.
func exactVal(st canonical.State, rng *rand.Rand) float64 {
	switch st.Op {
	case canonical.OpCount:
		return 1
	case canonical.OpProd:
		return [3]float64{0, 1, -1}[rng.Intn(3)]
	case canonical.OpMin, canonical.OpMax:
		return float64(rng.Intn(2001) - 1000) // anything but -0.0
	default:
		return float64(rng.Intn(1<<20)) - float64(1<<19)
	}
}

// nastyVal draws from the full adversarial float domain: NaN, ±Inf,
// -0.0, fractional, huge and tiny values.
func nastyVal(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return rng.NormFloat64() * 1e18
	case 5:
		return rng.NormFloat64() * 1e-18
	case 6:
		return float64(1<<21) + 0.5
	default:
		return rng.NormFloat64()
	}
}

// TestFoldInvariance is the two-stacks ⊕-invariance property test:
// random interleavings of Push and Evict across every state class,
// chunk size and value regime must keep Value() bit-identical to the
// reference chunked fold of the window's chronological contents.
func TestFoldInvariance(t *testing.T) {
	chunks := []int{0, 1, 3, 7, 64}
	for _, st := range ops() {
		for _, chunk := range chunks {
			for _, nasty := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(chunk)*100 + int64(st.Op)*10 + 1))
				f := New(st, chunk)
				var mirror []float64
				for step := 0; step < 4000; step++ {
					if len(mirror) > 0 && rng.Intn(3) == 0 {
						f.Evict()
						mirror = mirror[1:]
					} else {
						var v float64
						if nasty && st.Op != canonical.OpCount {
							v = nastyVal(rng)
						} else {
							v = exactVal(st, rng)
						}
						f.Push(v)
						mirror = append(mirror, v)
					}
					got := f.Value()
					want := refFold(st, chunk, mirror)
					// Bit-identity with the documented exemption (docs/WINDOWS.md
					// §3): which NaN payload survives a + b is the hardware's
					// operand-order choice, which -race instrumentation shifts.
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s chunk=%d nasty=%v step=%d len=%d: Value=%x want %x (%v vs %v)",
							st.Op, chunk, nasty, step, len(mirror),
							math.Float64bits(got), math.Float64bits(want), got, want)
					}
					if f.Len() != len(mirror) {
						t.Fatalf("%s: Len=%d want %d", st.Op, f.Len(), len(mirror))
					}
				}
			}
		}
	}
}

// TestFastPathEligibility pins the exactness gate: association-free
// values ride the O(1) path, anything else falls back, and evicting
// the violating value restores eligibility.
func TestFastPathEligibility(t *testing.T) {
	for _, st := range ops() {
		rng := rand.New(rand.NewSource(7))
		f := New(st, 64)
		for i := 0; i < 200; i++ {
			f.Push(exactVal(st, rng))
			f.Value()
		}
		if _, fast, refolds := f.Stats(); fast != 200 || refolds != 0 {
			t.Fatalf("%s exact-only: fast=%d refolds=%d, want 200/0", st.Op, fast, refolds)
		}
	}

	// A fractional value poisons a sum window until it leaves.
	st := canonical.State{Op: canonical.OpSum}
	f := New(st, 64)
	f.Push(1)
	f.Push(0.5)
	f.Value()
	if _, _, refolds := f.Stats(); refolds != 1 {
		t.Fatalf("fractional sum value should force a refold, got %d", refolds)
	}
	f.Evict() // evicts 1; 0.5 still present
	f.Value()
	if _, _, refolds := f.Stats(); refolds != 2 {
		t.Fatalf("violation should persist until evicted, refolds=%d", refolds)
	}
	f.Evict() // evicts 0.5
	f.Push(2)
	f.Value()
	if _, fast, refolds := f.Stats(); refolds != 2 || fast != 1 {
		t.Fatalf("after evicting violation: fast=%d refolds=%d, want 1/2", fast, refolds)
	}

	// -0.0 poisons a min window (compare-update vs math.Min ±0 ties).
	fm := New(canonical.State{Op: canonical.OpMin}, 64)
	fm.Push(math.Copysign(0, -1))
	fm.Value()
	if _, _, refolds := fm.Stats(); refolds != 1 {
		t.Fatalf("-0.0 min value should force a refold, got %d", refolds)
	}
}

func TestResetAndEmpty(t *testing.T) {
	st := canonical.State{Op: canonical.OpMin}
	f := New(st, 64)
	f.Evict() // empty evict is a no-op
	if got := f.Value(); !math.IsInf(got, 1) {
		t.Fatalf("empty min window: got %v, want +Inf identity", got)
	}
	f.Push(3)
	f.Push(1)
	f.Evict()
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Reset: Len=%d, want 0", f.Len())
	}
	if got := f.Value(); !math.IsInf(got, 1) {
		t.Fatalf("reset min window: got %v, want +Inf identity", got)
	}
	f.Push(5)
	if got := f.Value(); got != 5 {
		t.Fatalf("after reset: got %v, want 5", got)
	}
}
