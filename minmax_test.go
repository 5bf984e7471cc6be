package sudaf_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sudaf"
	"sudaf/internal/exec"
)

// The min/max ⊕ differential (DESIGN.md §8): min and max keep the last
// NaN of a group's rows, payload and all, and otherwise the first of its
// extreme values, so +0 wins a ±0 tie when it comes first. That answer
// must not depend on the worker count, on where a morsel boundary cuts
// the group, on the mode, on delta maintenance against a rescan, or on a
// window against a cold query. The oracle below shares no code with the
// engine. No arithmetic meets a NaN on the way from a row to a min/max
// answer, so every comparison is strict: Float64bits, NaN payloads
// included.

var (
	qNaN1 = math.Float64frombits(0x7ff8_0000_0000_0bad) // quiet
	qNaN2 = math.Float64frombits(0xfff8_0000_0000_0001) // quiet, negative
	sNaN1 = math.Float64frombits(0x7ff0_0000_0000_0001) // signaling
	sNaN2 = math.Float64frombits(0xfff4_0000_0000_0c0d) // signaling, negative
	negZ  = math.Copysign(0, -1)
)

// oracleExtreme is the row-order rule spelled out: the last NaN if any,
// else the first value no later value beats (strictly less for min,
// strictly greater for max), else the identity.
func oracleExtreme(xs []float64, isMax bool) float64 {
	best := math.Inf(1)
	if isMax {
		best = math.Inf(-1)
	}
	var nan []float64
	for _, v := range xs {
		switch {
		case math.IsNaN(v):
			nan = append(nan, v)
		case !isMax && v < best, isMax && v > best:
			best = v
		}
	}
	if len(nan) > 0 {
		return nan[len(nan)-1]
	}
	return best
}

// minMaxCase is one column of values, registered as table name: fill
// everywhere, except the planted rows.
type minMaxCase struct {
	name  string
	rows  int
	fill  float64
	plant map[int]float64
}

func (c minMaxCase) values() []float64 {
	xs := make([]float64, c.rows)
	for i := range xs {
		xs[i] = c.fill
	}
	for r, v := range c.plant {
		xs[r] = v
	}
	return xs
}

// minMaxCases plant each disagreement once inside a morsel and once
// across the boundary at row exec.MorselRows (65,536).
func minMaxCases() []minMaxCase {
	const n, b = 70_000, exec.MorselRows
	return []minMaxCase{
		{"nan_then_neginf_same_morsel", n, 1, map[int]float64{0: qNaN1, 1: math.Inf(-1)}},
		{"nan_then_neginf_next_morsel", n, 1, map[int]float64{0: qNaN1, b: math.Inf(-1)}},
		{"poszero_then_negzero_same_morsel", n, 1, map[int]float64{0: 0, 1: negZ}},
		{"poszero_then_negzero_next_morsel", n, 1, map[int]float64{0: 0, b: negZ}},
		{"snan_then_posinf_next_morsel", n, -1, map[int]float64{0: sNaN1, b: math.Inf(1)}},
		{"poszero_then_negzero_max_next_morsel", n, -1, map[int]float64{0: 0, b: negZ}},
		{"negzero_then_poszero_next_morsel", n, 1, map[int]float64{3: negZ, b + 3: 0}},
		{"last_nan_payload_wins", n, 1, map[int]float64{0: sNaN1, 1: qNaN2, b: math.Inf(-1), b + 1: sNaN2, b + 2: math.Inf(1)}},
		{"three_rows_nan", 3, 1, map[int]float64{0: qNaN1, 1: math.Inf(-1)}},
		{"three_rows_zeros", 3, 1, map[int]float64{0: 0, 1: negZ}},
	}
}

func floatTable(name string, xs []float64) *sudaf.Table {
	tbl := sudaf.NewTable(name, sudaf.NewColumn("x", sudaf.Float), sudaf.NewColumn("k", sudaf.Int))
	for _, v := range xs {
		tbl.Col("x").AppendFloat(v)
		tbl.Col("k").AppendInt(7)
	}
	return tbl
}

// minMaxEngine opens an engine with the hardcoded UDAFs umin and umax:
// min (max) plus a term that adds nothing, so Baseline folds them with
// the interpreted per-tuple task and the other modes with the kernels.
func minMaxEngine(t *testing.T, workers int) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(sudaf.Options{Workers: workers})
	for name, body := range map[string]string{"umin": "min(x) + 0*count()", "umax": "max(x) + 0*count()"} {
		if err := eng.DefineUDAF(name, []string{"x"}, body); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// minMaxWants is what `SELECT min(x), max(x), umin(x), umax(x)` must
// answer over xs: canonicalization drops the UDAFs' 0*count() term, so
// their answers are the states' bits too.
func minMaxWants(xs []float64) []float64 {
	lo, hi := oracleExtreme(xs, false), oracleExtreme(xs, true)
	return []float64{lo, hi, lo, hi}
}

const minMaxSelect = "min(x), max(x), umin(x), umax(x)"

func checkBits(t *testing.T, what string, got *sudaf.Result, row int, want []float64) {
	t.Helper()
	cols := got.Table.Cols[len(got.Table.Cols)-len(want):]
	for i, w := range want {
		if g := cols[i].F[row]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s = %#x (%v), want %#x (%v)", what, strings.Split(minMaxSelect, ", ")[i],
				math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

var minMaxModes = []struct {
	name string
	mode sudaf.Mode
}{{"baseline", sudaf.Baseline}, {"rewrite", sudaf.Rewrite}, {"share", sudaf.Share}}

func TestConcurrentMinMaxOneOplus(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			t.Run("morsels", func(t *testing.T) { minMaxMorsels(t, workers) })
			t.Run("deltas", func(t *testing.T) { minMaxDeltas(t, workers) })
			t.Run("windows", func(t *testing.T) { minMaxWindows(t, workers) })
		})
	}
}

// minMaxMorsels: grand and grouped aggregates in every mode, Share twice
// (miss, then full hit).
func minMaxMorsels(t *testing.T, workers int) {
	eng := minMaxEngine(t, workers)
	for _, c := range minMaxCases() {
		xs := c.values()
		if err := eng.Register(floatTable(c.name, xs)); err != nil {
			t.Fatal(err)
		}
		want := minMaxWants(xs)
		for _, m := range minMaxModes {
			for _, q := range []string{
				"SELECT " + minMaxSelect + " FROM %s",
				"SELECT k, " + minMaxSelect + " FROM %s GROUP BY k",
			} {
				runs := 1
				if m.mode == sudaf.Share {
					runs = 2
				}
				for run := 0; run < runs; run++ {
					res, err := eng.Query(fmt.Sprintf(q, c.name), m.mode)
					if err != nil {
						t.Fatal(err)
					}
					checkBits(t, fmt.Sprintf("%s %s run %d: %s", c.name, m.name, run, q), res, 0, want)
				}
			}
		}
	}
}

// minMaxDeltas: a Share answer cached before an append and then
// delta-maintained must equal a Rewrite rescan of the new version.
func minMaxDeltas(t *testing.T, workers int) {
	eng := minMaxEngine(t, workers)
	cases := []struct{ base, delta []float64 }{
		{[]float64{qNaN1, 5}, []float64{math.Inf(-1)}},
		{[]float64{0, 5}, []float64{negZ}},
		{[]float64{sNaN1, -5}, []float64{math.Inf(1)}},
		{[]float64{0, -5}, []float64{negZ}},
		{[]float64{qNaN1, 1}, []float64{sNaN2, math.Inf(-1)}},
	}
	for i, c := range cases {
		name := fmt.Sprintf("d%d", i)
		if err := eng.Register(floatTable(name, c.base)); err != nil {
			t.Fatal(err)
		}
		q := "SELECT " + minMaxSelect + " FROM " + name
		if _, err := eng.Query(q, sudaf.Share); err != nil {
			t.Fatal(err)
		}
		ar, err := eng.Append(context.Background(), name, floatTable(name, c.delta))
		if err != nil {
			t.Fatal(err)
		}
		if ar.EntriesMigrated == 0 {
			t.Fatalf("%s: append delta-maintained no cache entry", name)
		}
		want := minMaxWants(append(append([]float64(nil), c.base...), c.delta...))
		shared, err := eng.Query(q, sudaf.Share)
		if err != nil {
			t.Fatal(err)
		}
		if !shared.FullCacheHit {
			t.Fatalf("%s: Share after the append rescanned instead of reading the maintained entry", name)
		}
		checkBits(t, name+" share (delta-maintained)", shared, 0, want)
		rescan, err := eng.Query(q, sudaf.Rewrite)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, name+" rewrite (rescan)", rescan, 0, want)
	}
}

// minMaxWindows: every emission of a sliding min/max window equals a
// cold query over its frame, and no window value was refolded.
func minMaxWindows(t *testing.T, workers int) {
	const n, prec = 40, 4
	stream := []float64{qNaN1, 0, negZ, 1, math.Inf(-1), negZ, 0, sNaN1, 2, qNaN2,
		-3, math.Inf(1), 0, negZ, sNaN2, 5}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = stream[(i*7)%len(stream)]
	}
	eng := sudaf.Open(sudaf.Options{Workers: workers})
	if err := eng.Register(floatTable("w", xs)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ { // frame r's rows as table w_<r>
		if err := eng.Register(floatTable(fmt.Sprintf("w_%d", r), xs[max(0, r-prec):r+1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range minMaxModes {
		res, err := eng.Query(fmt.Sprintf("SELECT min(x) OVER (ROWS %d PRECEDING), max(x) FROM w", prec), m.mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != n {
			t.Fatalf("%s: %d emissions, want %d", m.name, res.Table.NumRows(), n)
		}
		for r := 0; r < n; r++ {
			want, err := eng.Query(fmt.Sprintf("SELECT min(x), max(x) FROM w_%d", r), m.mode)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 2; c++ {
				g, w := res.Table.Cols[c].F[r], want.Table.Cols[c].F[0]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s window ending at row %d col %d: %#x, cold %#x", m.name, r, c,
						math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
	m := eng.Metrics().ExpvarFunc()().(map[string]any)
	fast, refolds := counter(m, "sudaf_window_fast_folds_total"), counter(m, "sudaf_window_refolds_total")
	if fast == 0 || refolds != 0 {
		t.Errorf("window folds: fast=%d refolds=%d, want fast > 0 and no refold", fast, refolds)
	}
}

// counter sums a counter family's samples in an expvar snapshot.
func counter(m map[string]any, family string) int64 {
	var sum int64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v.(int64)
		}
	}
	return sum
}
