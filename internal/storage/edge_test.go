package storage

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// ---- Stats sentinels (empty / all-NaN / single-row columns) ----

func TestStatsFullEmptyColumn(t *testing.T) {
	c := NewColumn("x", KindFloat)
	min, max, hasNaN := c.StatsFull()
	if !math.IsInf(min, 1) || !math.IsInf(max, -1) {
		t.Fatalf("empty column stats = (%v, %v), want (+Inf, -Inf) sentinels", min, max)
	}
	if hasNaN {
		t.Fatal("empty column reports hasNaN")
	}
}

func TestStatsFullAllNaN(t *testing.T) {
	c := NewColumn("x", KindFloat)
	for i := 0; i < 5; i++ {
		c.AppendFloat(math.NaN())
	}
	min, max, hasNaN := c.StatsFull()
	if !math.IsInf(min, 1) || !math.IsInf(max, -1) {
		t.Fatalf("all-NaN column stats = (%v, %v), want (+Inf, -Inf) sentinels", min, max)
	}
	if !hasNaN {
		t.Fatal("all-NaN column reports hasNaN=false")
	}
}

func TestStatsFullSingleRow(t *testing.T) {
	c := NewColumn("x", KindFloat)
	c.AppendFloat(-3.5)
	min, max, hasNaN := c.StatsFull()
	if min != -3.5 || max != -3.5 || hasNaN {
		t.Fatalf("single-row stats = (%v, %v, %v), want (-3.5, -3.5, false)", min, max, hasNaN)
	}
	ci := NewColumn("k", KindInt)
	ci.AppendInt(42)
	if mn, mx := ci.Stats(); mn != 42 || mx != 42 {
		t.Fatalf("single-row int stats = (%v, %v), want (42, 42)", mn, mx)
	}
}

func TestStatsFullMixedNaN(t *testing.T) {
	c := NewColumn("x", KindFloat)
	for _, v := range []float64{math.NaN(), 2, math.NaN(), -7, 5} {
		c.AppendFloat(v)
	}
	min, max, hasNaN := c.StatsFull()
	if min != -7 || max != 5 || !hasNaN {
		t.Fatalf("stats = (%v, %v, %v), want (-7, 5, true)", min, max, hasNaN)
	}
	// Cached path returns the same answer.
	min2, max2, nan2 := c.StatsFull()
	if min2 != min || max2 != max || nan2 != hasNaN {
		t.Fatal("cached StatsFull disagrees with first computation")
	}
}

// ---- Slice degenerate cases ----

func TestSliceEmptyWindow(t *testing.T) {
	tbl := NewTable("t",
		NewColumn("x", KindFloat),
		NewColumn("s", KindString))
	for i := 0; i < 10; i++ {
		tbl.Col("x").AppendFloat(float64(i))
		tbl.Col("s").AppendString("a")
	}
	tbl.Seal()
	for _, lohi := range [][2]int{{0, 0}, {5, 5}, {10, 10}} {
		v := tbl.Slice(lohi[0], lohi[1])
		if v.NumRows() != 0 {
			t.Fatalf("Slice(%d,%d).NumRows() = %d, want 0", lohi[0], lohi[1], v.NumRows())
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("empty slice invalid: %v", err)
		}
		// Stats on an empty view must report sentinels, not stale parent stats.
		if mn, mx := v.Col("x").Stats(); !math.IsInf(mn, 1) || !math.IsInf(mx, -1) {
			t.Fatalf("empty view stats = (%v, %v)", mn, mx)
		}
	}
}

func TestSliceOfZeroRowTable(t *testing.T) {
	tbl := NewTable("t", NewColumn("x", KindInt))
	tbl.Seal()
	v := tbl.Slice(0, 0)
	if v.NumRows() != 0 {
		t.Fatalf("NumRows = %d", v.NumRows())
	}
}

func TestSliceCarriesEncodings(t *testing.T) {
	tbl := NewTable("t", NewColumn("x", KindInt))
	for i := 0; i < 4096; i++ {
		tbl.Col("x").AppendInt(int64(i / 512)) // long runs
	}
	tbl.Segments = []int{1024, 2048, 4096}
	tbl.Seal()
	full := tbl.Col("x").EncodedSegments()
	if len(full) == 0 {
		t.Fatal("no encodings built at Seal")
	}
	// A slice aligned on segment bounds keeps the inner segments, rebased.
	v := tbl.Slice(1024, 4096)
	got := v.Col("x").EncodedSegments()
	if len(got) != 2 {
		t.Fatalf("aligned slice kept %d encoded segments, want 2", len(got))
	}
	if got[0].Lo != 0 || got[0].Hi != 1024 {
		t.Fatalf("first kept segment = [%d,%d), want rebased [0,1024)", got[0].Lo, got[0].Hi)
	}
	// A misaligned slice drops partially-covered segments.
	v2 := tbl.Slice(100, 1500)
	for _, es := range v2.Col("x").EncodedSegments() {
		if es.Lo < 0 || es.Hi > v2.NumRows() {
			t.Fatalf("segment [%d,%d) out of view bounds [0,%d)", es.Lo, es.Hi, v2.NumRows())
		}
	}
}

// ---- CSV round-trip fidelity ----

func TestCSVRoundTripSpecialFloats(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), // ±0
		math.NaN(),
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1.0 / 3.0, 0.1, -1e-300,
		1e15, 1e15 - 1, -(1e15 + 17), // around the integer-format cutoff
		123456789.123456789,
	}
	tbl := NewTable("sp", NewColumn("v", KindFloat), NewColumn("k", KindInt))
	for i, v := range specials {
		tbl.Col("v").AppendFloat(v)
		tbl.Col("k").AppendInt(int64(i) - 3)
	}
	path := filepath.Join(t.TempDir(), "sp.csv")
	if err := tbl.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile("sp", path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != len(specials) {
		t.Fatalf("rows = %d, want %d", back.NumRows(), len(specials))
	}
	for i, want := range specials {
		got := back.Col("v").AsFloat(i)
		if math.Float64bits(got) != math.Float64bits(want) {
			// NaN payloads are not preserved by the "NaN" token; any NaN is fine.
			if math.IsNaN(got) && math.IsNaN(want) {
				continue
			}
			t.Errorf("row %d: %v (%#x) round-tripped to %v (%#x)",
				i, want, math.Float64bits(want), got, math.Float64bits(got))
		}
	}
	for i := range specials {
		if got, want := back.Col("k").AsInt(i), int64(i)-3; got != want {
			t.Errorf("int row %d: %d != %d", i, got, want)
		}
	}
}

// TestCSVRoundTripProperty: random bit patterns survive a CSV
// round-trip bit-for-bit (NaNs may canonicalize their payload).
func TestCSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl := NewTable("rt", NewColumn("v", KindFloat))
	var want []float64
	for i := 0; i < 2000; i++ {
		var v float64
		switch rng.Intn(3) {
		case 0: // arbitrary bit pattern (subnormals, NaNs, infs included)
			v = math.Float64frombits(rng.Uint64())
		case 1: // "ordinary" value
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
		default: // integral value around the formatting cutoff
			v = float64(rng.Int63n(1<<53)) - float64(rng.Int63n(1<<53))
		}
		want = append(want, v)
		tbl.Col("v").AppendFloat(v)
	}
	path := filepath.Join(t.TempDir(), "rt.csv")
	if err := tbl.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile("rt", path)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		g := back.Col("v").AsFloat(i)
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("row %d: %#x round-tripped to %#x (%v vs %v)",
				i, math.Float64bits(w), math.Float64bits(g), w, g)
		}
	}
}

func TestFormatFloatNegativeZero(t *testing.T) {
	c := NewColumn("v", KindFloat)
	c.AppendFloat(math.Copysign(0, -1))
	s := c.ValueString(0)
	if s != "-0" {
		t.Fatalf("ValueString(-0.0) = %q, want \"-0\"", s)
	}
}
