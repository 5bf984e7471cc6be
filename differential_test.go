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

// TestModesAgreeOnAdversarialData is the Baseline ≡ Rewrite ≡ Share
// differential from the issue: on NaN/±Inf/empty-group data the three
// execution strategies (interpreted UDAFs, compiled batch kernels, and
// compiled kernels with state sharing) must return the same rows.
func TestModesAgreeOnAdversarialData(t *testing.T) {
	queries := []string{
		"SELECT g, min(v) FROM adv GROUP BY g ORDER BY g",
		"SELECT g, max(v) FROM adv GROUP BY g ORDER BY g",
		"SELECT g, pr(v) FROM adv GROUP BY g ORDER BY g",
		"SELECT g, sum(v), avg(v) FROM adv GROUP BY g ORDER BY g",
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
	for _, sql := range queries {
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
				if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
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
					if !sameValue(a, b) {
						t.Errorf("%q col %d row %d: baseline %v, %s %v",
							sql, c, i, a, pair.label, b)
					}
				}
			}
		}
	}
}

// TestStrictPolicyAgreesAcrossModes: under NumericStrict a NaN aggregate
// (an all-NaN group) must fail with ErrNumericFault in every mode — the
// batch kernels may not change which queries error.
func TestStrictPolicyAgreesAcrossModes(t *testing.T) {
	for _, mode := range []sudaf.Mode{sudaf.Baseline, sudaf.Rewrite, sudaf.Share} {
		eng := advEngine(t)
		eng.SetNumericPolicy(sudaf.NumericStrict)
		_, err := eng.Query("SELECT g, min(v) FROM adv GROUP BY g", mode)
		if err == nil {
			t.Fatalf("mode %v: all-NaN group should fail under strict policy", mode)
		}
		if !errors.Is(err, sudaf.ErrNumericFault) {
			t.Errorf("mode %v: error %v does not wrap ErrNumericFault", mode, err)
		}
	}
	// Permissive: same query succeeds and reports the faults instead.
	eng := advEngine(t)
	res, err := eng.Query("SELECT g, min(v) FROM adv GROUP BY g", sudaf.Rewrite)
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
