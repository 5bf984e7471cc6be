package sudaf_test

import (
	"math"
	"testing"

	"sudaf"
	"sudaf/internal/data"
)

// TestVarianceOfAConstantGroup: population variance and standard
// deviation clamp a rounding-negative Σx²/n − (Σx/n)² to 0, so the
// constant groups 5 (42.5s) and 8 (0.7s) read exactly 0 — never a
// negative variance or a NaN standard deviation — in every mode, under
// either numeric policy and with no numeric fault. The formula itself is
// unchanged: group 9 (7s), which it rounds above zero, keeps that
// residue, identically in every mode. An empty selection is still NaN.
func TestVarianceOfAConstantGroup(t *testing.T) {
	const sql = "SELECT g, var(v), variance(v), var_pop(v), std(v), stddev(v), stddev_pop(v) FROM adv WHERE g = 5 OR g = 8 OR g = 9 GROUP BY g ORDER BY g"
	for _, pol := range []sudaf.NumericPolicy{sudaf.NumericPermissive, sudaf.NumericStrict} {
		var first *sudaf.Result
		for _, mode := range allModes {
			eng := advEngine(t)
			eng.SetNumericPolicy(pol)
			res, err := eng.Query(sql, mode)
			if err != nil {
				t.Fatalf("%v policy %v: %v", mode, pol, err)
			}
			if res.NumericFaults != 0 {
				t.Errorf("%v policy %v: %d numeric faults", mode, pol, res.NumericFaults)
			}
			for c := 1; c < len(res.Table.Cols); c++ {
				for g := 0; g < 2; g++ {
					if v := res.Table.Cols[c].AsFloat(g); math.Float64bits(v) != 0 {
						t.Errorf("%v col %d row %d: %v, want 0", mode, c, g, v)
					}
				}
				if v := res.Table.Cols[c].AsFloat(2); !(v >= 0 && v < 1e-7) {
					t.Errorf("%v col %d row 2: %v, want a residue in [0, 1e-7)", mode, c, v)
				}
				for g := 0; first != nil && g < 3; g++ {
					if a, b := first.Table.Cols[c].AsFloat(g), res.Table.Cols[c].AsFloat(g); !sameBits(a, b) {
						t.Errorf("%v col %d row %d: %v, %v in %v", mode, c, g, b, a, allModes[0])
					}
				}
			}
			if first == nil {
				first = res
			}
		}
	}
	for _, mode := range allModes {
		res, err := advEngine(t).Query(
			"SELECT var(v), variance(v), var_pop(v), std(v), stddev(v), stddev_pop(v) FROM adv WHERE g > 100", mode)
		if err != nil {
			t.Fatal(err)
		}
		for c, col := range res.Table.Cols {
			if v := col.AsFloat(0); !math.IsNaN(v) {
				t.Errorf("%v empty selection col %d: %v, want NaN", mode, c, v)
			}
		}
	}
}

// TestStdVarBitsOnMilan pins std and var on a small Milan table to the
// bits every mode returned before the clamp: where the variance is
// positive, clamping leaves the result untouched.
func TestStdVarBitsOnMilan(t *testing.T) {
	want := [][2]uint64{ // per square_id: std, var
		{0x4051694034d3accb, 0x40b2f25ccbf8d0b8},
		{0x4048a7a3a2bf9ed4, 0x40a2fee3ab56e384},
		{0x40471b30de2c8870, 0x40a0af2d5a218fd3},
		{0x404e0854d5441a4b, 0x40ac2fa13b2b388c},
	}
	for _, mode := range allModes {
		eng := sudaf.Open(sudaf.Options{Workers: 2})
		if err := eng.Register(data.Milan(5000, 4, 3)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query("SELECT square_id, std(internet_traffic), var(internet_traffic) FROM milan_data GROUP BY square_id ORDER BY square_id", mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != len(want) {
			t.Fatalf("%v: %d groups, want %d", mode, res.Table.NumRows(), len(want))
		}
		for g, w := range want {
			for c := 0; c < 2; c++ {
				if got := math.Float64bits(res.Table.Cols[c+1].AsFloat(g)); got != w[c] {
					t.Errorf("%v group %d col %d: %#x, want %#x", mode, g, c+1, got, w[c])
				}
			}
		}
	}
}
