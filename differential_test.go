package sudaf_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sudaf"
)

// advEngine builds an engine over adversarial data: whole groups of NaN,
// NaN mixed into normal values, ±Inf, signed zeros, negatives, and
// near-one values (so products stay finite). Groups interleave so every
// execution batch sees several of them.
func advEngine(t *testing.T) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(sudaf.Options{Workers: 4})
	rng := rand.New(rand.NewSource(7))
	tbl := sudaf.NewTable("adv",
		sudaf.NewColumn("g", sudaf.Int),
		sudaf.NewColumn("v", sudaf.Float))
	for i := 0; i < 9_973; i++ {
		g := i % 8
		var v float64
		switch g {
		case 0:
			v = math.NaN()
		case 1:
			if rng.Intn(3) == 0 {
				v = math.NaN()
			} else {
				v = rng.Float64()*4 - 2
			}
		case 2:
			v = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			v = rng.Float64()*200 - 100
		case 4:
			v = math.Copysign(0, float64(1-2*rng.Intn(2)))
		case 5:
			v = 42.5
		case 6:
			v = 0.999 + rng.Float64()*0.002
		default:
			v = rng.Float64() * 1e-100
		}
		tbl.Col("g").AppendInt(int64(g))
		tbl.Col("v").AppendFloat(v)
	}
	// Two more constant groups of seven rows: 0.7s (group 8), whose
	// Σx²/n − (Σx/n)² rounds below zero like group 5's, and 7s (group
	// 9), whose formula rounds to a tiny positive value.
	for g, v := range []float64{0.7, 7} {
		for i := 0; i < 7; i++ {
			tbl.Col("g").AppendInt(int64(8 + g))
			tbl.Col("v").AppendFloat(v)
		}
	}
	if err := eng.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := eng.DefineUDAF("pr", []string{"x"}, "prod(x)"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameValue compares aggregate outputs across execution strategies:
// NaN ≡ NaN, ±Inf must match in sign, finite values must agree to a
// relative 1e-9 (different but equivalent computation orders may round
// differently).
func sameValue(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// sameBits reports bit-for-bit equality, every NaN equal to every NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// builtinQueries select SQL built-ins only: every built-in and alias,
// over every adversarial group (the constant groups 5, 8 and 9
// included) and over an empty selection.
var builtinQueries = []string{
	"SELECT g, min(v) FROM adv GROUP BY g ORDER BY g",
	"SELECT g, max(v) FROM adv GROUP BY g ORDER BY g",
	"SELECT g, sum(v), avg(v) FROM adv GROUP BY g ORDER BY g",
	"SELECT g, count(*), mean(v) FROM adv GROUP BY g ORDER BY g",
	"SELECT g, var(v), variance(v), var_pop(v), std(v), stddev(v), stddev_pop(v) FROM adv GROUP BY g ORDER BY g",
	"SELECT g, covar(v, v*g), covar_pop(v, g) FROM adv GROUP BY g ORDER BY g",
	"SELECT var_pop(v), stddev_pop(v), covar(v, v) FROM adv WHERE g = 8",
	"SELECT count(*), sum(v), avg(v), mean(v), min(v), max(v), var(v), std(v), covar(v, g) FROM adv WHERE g > 100",
}

// TestModesAgreeOnAdversarialData is the Baseline ≡ Rewrite ≡ Share
// differential from the issue: on NaN/±Inf/empty-group data the three
// execution strategies (interpreted UDAFs, compiled batch kernels, and
// compiled kernels with state sharing) must return the same rows. Every
// mode runs a SQL built-in through its one canonical form, so on the
// built-in queries the modes agree bit for bit; a UDAF's interpreted
// baseline may round differently and agrees to 1e-9.
func TestModesAgreeOnAdversarialData(t *testing.T) {
	queries := []string{
		"SELECT g, pr(v) FROM adv GROUP BY g ORDER BY g",
		"SELECT g, qm(v) FROM adv GROUP BY g ORDER BY g",
		"SELECT min(v), max(v), pr(v) FROM adv",
		// Empty selection: the grand aggregate over zero rows must yield
		// the merge identities (+Inf/-Inf/1) in every mode.
		"SELECT min(v), max(v), pr(v) FROM adv WHERE g > 100",
		// Hardcoded terminating functions (the moment-sketch quantiles):
		// Share's repeat below reads their memoized columns.
		"SELECT g, approx_median(v), approx_first_quantile(v), approx_third_quantile(v) FROM adv GROUP BY g ORDER BY g",
		"SELECT approx_median(v), approx_first_quantile(v), approx_third_quantile(v) FROM adv WHERE g = 3",
	}
	firstBuiltin := len(queries)
	queries = append(queries, builtinQueries...)
	for qi, sql := range queries {
		same := sameValue
		if qi >= firstBuiltin {
			same = sameBits
		}
		// Fresh engines per query so Share's cache can't leak state
		// between differential cases.
		base := advEngine(t)
		rew := advEngine(t)
		shr := advEngine(t)
		rb, err := base.Query(sql, sudaf.Baseline)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		rr, err := rew.Query(sql, sudaf.Rewrite)
		if err != nil {
			t.Fatalf("rewrite %q: %v", sql, err)
		}
		rs, err := shr.Query(sql, sudaf.Share)
		if err != nil {
			t.Fatalf("share %q: %v", sql, err)
		}
		// A repeat in Share mode is a full cache hit (and, for a hardcoded
		// T, a memo hit): it must reproduce the first answer to the bit.
		again, err := shr.Query(sql, sudaf.Share)
		if err != nil {
			t.Fatalf("share repeat %q: %v", sql, err)
		}
		if !again.FullCacheHit {
			t.Errorf("%q: the repeat scanned %d rows", sql, again.RowsScanned)
		}
		for c := range rs.Table.Cols {
			for i := 0; i < rs.Table.NumRows(); i++ {
				a, b := rs.Table.Cols[c].AsFloat(i), again.Table.Cols[c].AsFloat(i)
				if !sameBits(a, b) {
					t.Errorf("%q col %d row %d: share %v, repeated %v", sql, c, i, a, b)
				}
			}
		}
		for _, pair := range []struct {
			label string
			other *sudaf.Result
		}{{"rewrite", rr}, {"share", rs}} {
			if pair.other.Table.NumRows() != rb.Table.NumRows() {
				t.Fatalf("%q: %s has %d rows, baseline %d", sql, pair.label,
					pair.other.Table.NumRows(), rb.Table.NumRows())
			}
			for c := range rb.Table.Cols {
				for i := 0; i < rb.Table.NumRows(); i++ {
					a := rb.Table.Cols[c].AsFloat(i)
					b := pair.other.Table.Cols[c].AsFloat(i)
					if !same(a, b) {
						t.Errorf("%q col %d row %d: baseline %v, %s %v",
							sql, c, i, a, pair.label, b)
					}
				}
			}
		}
	}
}

// TestStrictPolicyAgreesAcrossModes: under NumericStrict a query fails
// with ErrNumericFault in every mode or in none — the batch kernels may
// not change which queries error — and when it succeeds the modes agree
// bit for bit. An all-NaN group fails; the finite selections (group 3,
// the constant groups) pass.
func TestStrictPolicyAgreesAcrossModes(t *testing.T) {
	const allNaN = "SELECT g, min(v) FROM adv GROUP BY g"
	passed := 0
	for _, sql := range append([]string{allNaN}, append(builtinQueries,
		"SELECT g, count(*), var(v), std(v) FROM adv WHERE g = 3 OR g = 5 OR g = 8 OR g = 9 GROUP BY g ORDER BY g")...) {
		var first *sudaf.Result
		failed := 0
		for _, mode := range allModes {
			eng := advEngine(t)
			eng.SetNumericPolicy(sudaf.NumericStrict)
			res, err := eng.Query(sql, mode)
			if err != nil {
				if !errors.Is(err, sudaf.ErrNumericFault) {
					t.Fatalf("%v %q: error %v does not wrap ErrNumericFault", mode, sql, err)
				}
				failed++
				continue
			}
			if first == nil {
				first = res
				continue
			}
			for c := range first.Table.Cols {
				for i := 0; i < first.Table.NumRows(); i++ {
					if a, b := first.Table.Cols[c].AsFloat(i), res.Table.Cols[c].AsFloat(i); !sameBits(a, b) {
						t.Errorf("%q col %d row %d: %v %v, %v first", sql, c, i, mode, b, a)
					}
				}
			}
		}
		switch {
		case failed != 0 && failed != len(allModes):
			t.Errorf("%q: %d of %d modes failed under NumericStrict", sql, failed, len(allModes))
		case sql == allNaN && failed == 0:
			t.Errorf("%q: an all-NaN group should fail under the strict policy", sql)
		case failed == 0:
			passed++
		}
	}
	if passed < 2 {
		t.Errorf("only %d queries passed under NumericStrict", passed)
	}
	// Permissive: the all-NaN query succeeds and reports the faults instead.
	eng := advEngine(t)
	res, err := eng.Query(allNaN, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumericFaults == 0 {
		t.Error("permissive run should count numeric faults")
	}
}

// TestTypedSentinelErrors covers the errors.Is contract documented on
// Query/QueryContext/QueryBatches.
func TestTypedSentinelErrors(t *testing.T) {
	eng := advEngine(t)
	if _, err := eng.Query("SELECT avg(v) FROM nosuch", sudaf.Rewrite); !errors.Is(err, sudaf.ErrUnknownTable) {
		t.Errorf("unknown table: %v", err)
	}
	// prod has aggregate syntax but is not a SQL built-in: usable inside
	// UDAF definitions only, so a direct call is an unknown aggregate.
	if _, err := eng.Query("SELECT g, prod(v) FROM adv GROUP BY g", sudaf.Rewrite); !errors.Is(err, sudaf.ErrUnknownUDAF) {
		t.Errorf("unknown aggregate: %v", err)
	}
	if _, err := eng.Query("SELECT prod(v) FROM adv", sudaf.Baseline); !errors.Is(err, sudaf.ErrUnknownUDAF) {
		t.Errorf("unknown aggregate (baseline): %v", err)
	}
	if _, err := eng.Query("SELECT FROM WHERE", sudaf.Rewrite); !errors.Is(err, sudaf.ErrParse) {
		t.Errorf("parse error: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.QueryContext(ctx, "SELECT avg(v) FROM adv", sudaf.Rewrite)
	if !errors.Is(err, sudaf.ErrCanceled) {
		t.Errorf("canceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled should still match context.Canceled: %v", err)
	}
	if _, err := eng.QueryBatches(ctx, "SELECT avg(v) FROM adv", sudaf.Rewrite); !errors.Is(err, sudaf.ErrCanceled) {
		t.Errorf("QueryBatches canceled: %v", err)
	}
}
