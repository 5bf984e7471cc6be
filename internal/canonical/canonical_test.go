package canonical

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sudaf/internal/expr"
)

// decompose is a test helper.
func decompose(t *testing.T, name, params, body string) *Form {
	t.Helper()
	var ps []string
	if params != "" {
		ps = strings.Split(params, ",")
	}
	f, err := Decompose(name, ps, expr.MustParse(body))
	if err != nil {
		t.Fatalf("Decompose(%s): %v", name, err)
	}
	return f
}

// stateKeys returns sorted state keys for comparison.
func stateKeys(f *Form) []string {
	out := make([]string, len(f.States))
	for i, s := range f.States {
		out[i] = s.Key()
	}
	sort.Strings(out)
	return out
}

func TestDecomposeTable1(t *testing.T) {
	// Table 1 aggregations: state count and op kinds must match the paper.
	cases := []struct {
		name, params, body string
		wantStates         int
		wantOps            map[AggOp]int
	}{
		{"qm", "x", "sqrt(sum(x^2)/count())", 2, map[AggOp]int{OpSum: 1, OpCount: 1}},
		{"gm", "x", "prod(x)^(1/count())", 2, map[AggOp]int{OpProd: 1, OpCount: 1}},
		{"stddev", "x", "sqrt(sum(x^2)/n - (sum(x)/n)^2)", 3, map[AggOp]int{OpSum: 2, OpCount: 1}},
		{"logsumexp", "x", "ln(sum(exp(x)))", 1, map[AggOp]int{OpSum: 1}},
		{"hm", "x", "count()/sum(x^(-1))", 2, map[AggOp]int{OpSum: 1, OpCount: 1}},
		{"covariance", "x,y", "sum(x*y)/n - sum(x)*sum(y)/n^2", 4, map[AggOp]int{OpSum: 3, OpCount: 1}},
		{"theta1", "x,y", "(count()*sum(x*y)-sum(y)*sum(x))/(count()*sum(x^2)-sum(x)^2)", 5, map[AggOp]int{OpSum: 4, OpCount: 1}},
		{"correlation", "x,y",
			"(n*sum(x*y)-sum(x)*sum(y))/(sqrt(n*sum(x^2)-sum(x)^2)*sqrt(n*sum(y^2)-sum(y)^2))",
			6, map[AggOp]int{OpSum: 5, OpCount: 1}},
		{"power_mean_3", "x", "(sum(x^3)/n)^(1/3)", 2, map[AggOp]int{OpSum: 1, OpCount: 1}},
	}
	for _, c := range cases {
		f := decompose(t, c.name, c.params, c.body)
		if len(f.States) != c.wantStates {
			t.Errorf("%s: got %d states %v, want %d", c.name, len(f.States), stateKeys(f), c.wantStates)
		}
		got := map[AggOp]int{}
		for _, s := range f.States {
			got[s.Op]++
		}
		for op, n := range c.wantOps {
			if got[op] != n {
				t.Errorf("%s: got %d %v states, want %d (%v)", c.name, got[op], op, n, stateKeys(f))
			}
		}
	}
}

func TestDecomposeDedup(t *testing.T) {
	// sum(x) appears three times but must produce one state.
	f := decompose(t, "d", "x", "sum(x)/count() + sum(x)^2 - sum(x)")
	if len(f.States) != 2 {
		t.Fatalf("got %d states (%v), want 2", len(f.States), stateKeys(f))
	}
}

func TestDecomposeEquivalentBodiesShareStates(t *testing.T) {
	// sum(x*x) and sum(x^2) must produce the same state key.
	a := decompose(t, "a", "x", "sum(x*x)")
	b := decompose(t, "b", "x", "sum(x^2)")
	if a.States[0].Key() != b.States[0].Key() {
		t.Errorf("keys differ: %q vs %q", a.States[0].Key(), b.States[0].Key())
	}
}

func TestHoistLinearFromSum(t *testing.T) {
	// Σ4x² = 4·Σx²: the stored state must be the representative Σx².
	a := decompose(t, "a", "x", "sum(4*x^2)")
	b := decompose(t, "b", "x", "sum(x^2)")
	if len(a.States) != 1 || a.States[0].Key() != b.States[0].Key() {
		t.Fatalf("hoisting failed: %v vs %v", stateKeys(a), stateKeys(b))
	}
	// Σ(3x)² = 9Σx² likewise.
	c := decompose(t, "c", "x", "sum((3*x)^2)")
	if c.States[0].Key() != b.States[0].Key() {
		t.Fatalf("(3x)^2 not hoisted: %v", stateKeys(c))
	}
	// And ln(x^3) = 3·ln x.
	d1 := decompose(t, "d1", "x", "sum(ln(x^3))")
	d2 := decompose(t, "d2", "x", "sum(ln(x))")
	if d1.States[0].Key() != d2.States[0].Key() {
		t.Fatalf("ln(x^3) not hoisted: %v vs %v", stateKeys(d1), stateKeys(d2))
	}
}

func TestHoistPowerFromProd(t *testing.T) {
	// Πx² = (Πx)²: stored state must be Πx.
	a := decompose(t, "a", "x", "prod(x^2)")
	b := decompose(t, "b", "x", "prod(x)")
	if a.States[0].Key() != b.States[0].Key() {
		t.Fatalf("power not hoisted from prod: %v vs %v", stateKeys(a), stateKeys(b))
	}
}

func TestSplittingRules(t *testing.T) {
	// SR1: Σ(x²+y²) = Σx² + Σy².
	f := decompose(t, "sr1", "x,y", "sum(x^2+y^2)")
	if len(f.States) != 2 {
		t.Fatalf("SR1: got states %v", stateKeys(f))
	}
	// SR2: Π(x·y) = Πx · Πy.
	g := decompose(t, "sr2", "x,y", "prod(x*y)")
	if len(g.States) != 2 {
		t.Fatalf("SR2: got states %v", stateKeys(g))
	}
	for _, s := range g.States {
		if s.Op != OpProd {
			t.Errorf("SR2 state has op %v", s.Op)
		}
	}
	// Π(2x) = 2^count · Πx.
	h := decompose(t, "sr2c", "x", "prod(2*x)")
	ops := map[AggOp]int{}
	for _, s := range h.States {
		ops[s.Op]++
	}
	if ops[OpCount] != 1 || ops[OpProd] != 1 {
		t.Fatalf("prod const hoist: got %v", stateKeys(h))
	}
}

func TestMinMaxCount(t *testing.T) {
	f := decompose(t, "range", "x", "max(x) - min(x)")
	if len(f.States) != 2 {
		t.Fatalf("got %v", stateKeys(f))
	}
	if f.States[0].Op != OpMax && f.States[1].Op != OpMax {
		t.Error("missing max state")
	}
	c := decompose(t, "cnt", "x", "count()")
	if len(c.States) != 1 || c.States[0].Op != OpCount {
		t.Fatalf("count: %v", stateKeys(c))
	}
	if c.States[0].Key() != "count()" {
		t.Errorf("count key = %q", c.States[0].Key())
	}
}

func TestDecomposeErrors(t *testing.T) {
	cases := []struct{ params, body string }{
		{"x", "x + 1"},          // no aggregate
		{"x", "x + sum(x)"},     // free variable in T
		{"x", "sum(sum(x))"},    // nested aggregate
		{"x", "sum(x+y)"},       // undeclared parameter in state
		{"x", "min(count()+x)"}, // aggregate inside min
		{"x", "prod(sum(x)*x)"}, // aggregate inside prod
	}
	for _, c := range cases {
		_, err := Decompose("bad", strings.Split(c.params, ","), expr.MustParse(c.body))
		if err == nil {
			t.Errorf("Decompose(%q) should fail", c.body)
		}
	}
}

// evalUDAF computes a decomposed UDAF over a dataset directly from its
// canonical form: translate each tuple with F, merge with ⊕, finish with T.
func evalUDAF(t *testing.T, f *Form, xs, ys []float64) float64 {
	t.Helper()
	states := make([]float64, len(f.States))
	for i, s := range f.States {
		acc := s.MergeIdentity()
		for j := range xs {
			var fx float64
			switch {
			case s.Op == OpCount:
				fx = 1
			default:
				env := expr.MapEnv{"x": xs[j]}
				if ys != nil {
					env["y"] = ys[j]
				}
				base, err := expr.Eval(s.Base, env)
				if err != nil {
					t.Fatalf("eval base: %v", err)
				}
				fx = s.F.Eval(base)
			}
			acc = s.Merge(acc, fx)
		}
		states[i] = acc
	}
	tfn, err := f.CompileT()
	if err != nil {
		t.Fatalf("CompileT(%s): %v", f.Name, err)
	}
	return tfn(states)
}

// TestCanonicalFormCorrectness: for each aggregation, computing via the
// canonical form must equal computing the textbook formula directly.
func TestCanonicalFormCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = 0.5 + r.Float64()*9
		ys[i] = 0.5 + r.Float64()*4
	}
	sum := func(vs []float64, f func(float64) float64) float64 {
		acc := 0.0
		for _, v := range vs {
			acc += f(v)
		}
		return acc
	}
	sx := sum(xs, func(v float64) float64 { return v })
	sx2 := sum(xs, func(v float64) float64 { return v * v })
	sy := sum(ys, func(v float64) float64 { return v })
	sxy := 0.0
	for i := range xs {
		sxy += xs[i] * ys[i]
	}
	nf := float64(n)

	checks := []struct {
		name, params, body string
		want               float64
	}{
		{"qm", "x", "sqrt(sum(x^2)/count())", math.Sqrt(sx2 / nf)},
		{"stddev", "x", "sqrt(sum(x^2)/n - (sum(x)/n)^2)", math.Sqrt(sx2/nf - (sx/nf)*(sx/nf))},
		{"avg", "x", "avg(x)", sx / nf},
		{"hm", "x", "count()/sum(x^(-1))", nf / sum(xs, func(v float64) float64 { return 1 / v })},
		{"gm", "x", "prod(x)^(1/count())", math.Exp(sum(xs, math.Log) / nf)},
		{"theta1", "x,y", "(count()*sum(x*y)-sum(y)*sum(x))/(count()*sum(x^2)-sum(x)^2)",
			(nf*sxy - sy*sx) / (nf*sx2 - sx*sx)},
		{"logsumexp", "x", "ln(sum(exp(x)))",
			math.Log(sum(xs, math.Exp))},
		{"range", "x", "max(x)-min(x)", maxOf(xs) - minOf(xs)},
		{"sum4x2", "x", "sum(4*x^2)", 4 * sx2},
		{"cm_shifted", "x", "sum(x^3)/n - 3*(sum(x^2)/n)*(sum(x)/n) + 2*(sum(x)/n)^3",
			centralMoment3(xs)},
	}
	for _, c := range checks {
		var ps []string = strings.Split(c.params, ",")
		f, err := Decompose(c.name, ps, expr.MustParse(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var yv []float64
		if len(ps) > 1 {
			yv = ys
		}
		got := evalUDAF(t, f, xs, yv)
		if math.Abs(got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("%s: canonical form gives %v, direct gives %v\nform: %s",
				c.name, got, c.want, f)
		}
	}
}

func minOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

func centralMoment3(vs []float64) float64 {
	n := float64(len(vs))
	mu := 0.0
	for _, v := range vs {
		mu += v
	}
	mu /= n
	acc := 0.0
	for _, v := range vs {
		d := v - mu
		acc += d * d * d
	}
	return acc / n
}

func TestFormString(t *testing.T) {
	f := decompose(t, "qm", "x", "sqrt(sum(x^2)/count())")
	s := f.String()
	if !strings.Contains(s, "F=") || !strings.Contains(s, "T=") {
		t.Errorf("String() = %q", s)
	}
}

func TestStateMerge(t *testing.T) {
	sumState := State{Op: OpSum}
	if sumState.Merge(2, 3) != 5 || sumState.MergeIdentity() != 0 {
		t.Error("sum merge")
	}
	prodState := State{Op: OpProd}
	if prodState.Merge(2, 3) != 6 || prodState.MergeIdentity() != 1 {
		t.Error("prod merge")
	}
	minState := State{Op: OpMin}
	if minState.Merge(2, 3) != 2 || !math.IsInf(minState.MergeIdentity(), 1) {
		t.Error("min merge")
	}
	maxState := State{Op: OpMax}
	if maxState.Merge(2, 3) != 3 || !math.IsInf(maxState.MergeIdentity(), -1) {
		t.Error("max merge")
	}
}

func TestMultivariateBase(t *testing.T) {
	// The cofactor Σ x·y is a univariate aggregate over the abstract
	// column x·y (footnote 3 in the paper).
	f := decompose(t, "cof", "x,y", "sum(x*y)")
	if len(f.States) != 1 {
		t.Fatalf("states: %v", stateKeys(f))
	}
	if got := f.States[0].Base.String(); got != "(x*y)" {
		t.Errorf("base = %q", got)
	}
}
