package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// momentsOf computes min, max and raw moments of a sample.
func momentsOf(xs []float64, k int) (min, max float64, m []float64) {
	min, max = math.Inf(1), math.Inf(-1)
	m = make([]float64, k+1)
	m[0] = 1
	for _, x := range xs {
		min = math.Min(min, x)
		max = math.Max(max, x)
	}
	n := float64(len(xs))
	for i := 1; i <= k; i++ {
		acc := 0.0
		for _, x := range xs {
			acc += math.Pow(x, float64(i))
		}
		m[i] = acc / n
	}
	return min, max, m
}

func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	idx := q * float64(len(s)-1)
	lo := int(idx)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// checkQuantile asserts the sketch estimate is within tol·range of the
// exact sample quantile.
func checkQuantile(t *testing.T, xs []float64, q, tol float64, label string) {
	t.Helper()
	min, max, m := momentsOf(xs, DefaultK)
	got := Quantile(min, max, m, q)
	want := exactQuantile(xs, q)
	if math.IsNaN(got) {
		t.Fatalf("%s: NaN estimate", label)
	}
	spread := max - min
	if math.Abs(got-want) > tol*spread {
		t.Errorf("%s q=%v: estimate %v, exact %v (spread %v)", label, q, got, want, spread)
	}
}

func TestQuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		checkQuantile(t, xs, q, 0.02, "uniform")
	}
}

func TestQuantileGaussianish(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 50 + 10*rng.NormFloat64()
	}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		checkQuantile(t, xs, q, 0.03, "gaussian")
	}
}

func TestQuantileLognormal(t *testing.T) {
	// The Milan traffic distribution shape: heavy-tailed.
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(2 + 0.8*rng.NormFloat64())
	}
	// Heavy tails are the hard case for moment methods; allow 6% of range
	// on the median (the msketch paper reports similar behaviour).
	checkQuantile(t, xs, 0.5, 0.06, "lognormal")
}

func TestQuantilePointMass(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	min, max, m := momentsOf(xs, DefaultK)
	if got := Quantile(min, max, m, 0.5); got != 5 {
		t.Errorf("point mass: %v", got)
	}
}

func TestQuantileTwoPoint(t *testing.T) {
	// Half 0s, half 10s: median is ambiguous; estimate must stay in range.
	xs := make([]float64, 1000)
	for i := 500; i < 1000; i++ {
		xs[i] = 10
	}
	min, max, m := momentsOf(xs, DefaultK)
	got := Quantile(min, max, m, 0.9)
	if got < 0 || got > 10 {
		t.Errorf("two-point estimate out of range: %v", got)
	}
}

func TestStatesShape(t *testing.T) {
	sts := States(10)
	if len(sts) != NumStates(10) || len(sts) != 23 {
		t.Fatalf("MS(10) has %d states, want 23", len(sts))
	}
	// First three are min, max, count.
	if sts[0].Op.String() != "min" || sts[1].Op.String() != "max" || sts[2].Op.String() != "count" {
		t.Errorf("header states wrong: %v %v %v", sts[0].Op, sts[1].Op, sts[2].Op)
	}
	// All keys distinct.
	seen := map[string]bool{}
	for _, s := range sts {
		k := s.Key()
		if seen[k] {
			t.Errorf("duplicate state key %s", k)
		}
		seen[k] = true
	}
}

func TestQuantileFormEvaluate(t *testing.T) {
	form, err := QuantileForm("approx_median", 6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1 + rng.Float64()*9
	}
	// Compute the states directly.
	vals := make([]float64, len(form.States))
	for i, s := range form.States {
		acc := s.MergeIdentity()
		for _, x := range xs {
			var v float64
			switch s.Op.String() {
			case "count":
				v = 1
			default:
				v = s.F.Eval(x)
			}
			acc = s.Merge(acc, v)
		}
		vals[i] = acc
	}
	tfn, err := form.CompileT()
	if err != nil {
		t.Fatal(err)
	}
	got := tfn(vals)
	want := exactQuantile(xs, 0.5)
	if math.Abs(got-want) > 0.03*9 {
		t.Errorf("approx_median = %v, exact %v", got, want)
	}
}

func TestQuantileFormValidation(t *testing.T) {
	if _, err := QuantileForm("x", 1, 0.5); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := QuantileForm("x", 5, 0); err == nil {
		t.Error("q=0 should fail")
	}
	if _, err := QuantileForm("x", 5, 1.5); err == nil {
		t.Error("q>1 should fail")
	}
}

func TestSolveLinear(t *testing.T) {
	H := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solveLinear(H, b)
	if !ok {
		t.Fatal("solve failed")
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
	// Singular matrix fails cleanly.
	if _, ok := solveLinear([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); ok {
		t.Error("singular solve should fail")
	}
}

func BenchmarkQuantileSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	min, max, m := momentsOf(xs, DefaultK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantile(min, max, m, 0.5)
	}
}
