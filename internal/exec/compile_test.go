package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// The scalar language has one definition (expr.Funcs, expr.ConstPow,
// expr.Compile) and four ways of running it: the tree-walking interpreter
// expr.Eval, the row instantiation CompileExpr (E = int32), the
// state-vector instantiation behind canonical.Form.CompileT
// (E = []float64) and the vector filler. The tests in this file run all
// four over the same trees and values and demand identical bits (bitsEq:
// a NaN equals any NaN, the one exemption of DESIGN.md §8 — which
// operand's payload survives l+r is the hardware's choice).

// scalarVars are the variables the differential binds, in column order.
var scalarVars = []string{"x", "y", "z"}

// adversarial are the values every variable takes besides random ones:
// the IEEE specials, signed zeros, subnormals, negatives (under ln/sqrt)
// and the exponents that have a ConstPow reduction.
var adversarial = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	-1, 1, -2.5, 2, 3, 0.5, 1e300, -1e300, math.MaxFloat64,
}

// funcNames returns the function table's names in a fixed order.
func funcNames() []string {
	names := make([]string, 0, len(expr.Funcs))
	for name := range expr.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// genScalar builds a random tree over scalarVars, every operator, every
// table function and the constants that trigger (and just miss) the
// constant-exponent reduction.
func genScalar(rng *rand.Rand, depth int) expr.Node {
	if depth <= 0 {
		if rng.Intn(3) == 0 {
			consts := []float64{0, 1, -1, 0.5, 2, 3, 4, -2.5, 1e-3, 1e6}
			return &expr.Num{Val: consts[rng.Intn(len(consts))]}
		}
		return &expr.Var{Name: scalarVars[rng.Intn(len(scalarVars))]}
	}
	switch rng.Intn(8) {
	case 0:
		return &expr.Neg{X: genScalar(rng, depth-1)}
	case 1, 2, 3:
		ops := []byte{'+', '-', '*', '/', '^'}
		return &expr.Bin{Op: ops[rng.Intn(len(ops))], L: genScalar(rng, depth-1), R: genScalar(rng, depth-1)}
	case 4:
		pows := []float64{2, 3, -1, 0.5, 0, 4, -0.5}
		return &expr.Bin{Op: '^', L: genScalar(rng, depth-1), R: &expr.Num{Val: pows[rng.Intn(len(pows))]}}
	default:
		names := funcNames()
		name := names[rng.Intn(len(names))]
		args := make([]expr.Node, expr.Funcs[name].Arity)
		for i := range args {
			args[i] = genScalar(rng, depth-1)
		}
		return &expr.Call{Name: name, Args: args}
	}
}

// runAllPaths evaluates n over the rows of cols (one slice per scalarVars
// entry, equal lengths ≤ BatchSize) through the four paths. Either every
// path fails or none does; on success the four result vectors are
// returned in the order eval, row, state, vector.
func runAllPaths(t testing.TB, n expr.Node, cols [][]float64) (out [4][]float64, ok bool) {
	t.Helper()
	rows := len(cols[0])
	tbl := storage.NewTable("t")
	for i, name := range scalarVars {
		c := storage.NewColumn(name, storage.KindFloat)
		c.F = cols[i]
		if err := tbl.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	b := NewTableBinder(tbl)

	var errs [4]error
	for p := range out {
		out[p] = make([]float64, rows)
	}
	env := expr.MapEnv{}
	for r := 0; r < rows && errs[0] == nil; r++ {
		for i, name := range scalarVars {
			env[name] = cols[i][r]
		}
		out[0][r], errs[0] = expr.Eval(n, env)
	}
	acc, err := CompileExpr(n, b.Bind)
	if errs[1] = err; err == nil {
		for r := range out[1] {
			out[1][r] = acc(int32(r))
		}
	}
	tfn, err := expr.Compile(n, func(name string) (func([]float64) float64, error) {
		for i, v := range scalarVars {
			if v == name {
				return func(s []float64) float64 { return s[i] }, nil
			}
		}
		return nil, fmt.Errorf("unknown state %q", name)
	})
	if errs[2] = err; err == nil {
		vec := make([]float64, len(scalarVars))
		for r := range out[2] {
			for i := range vec {
				vec[i] = cols[i][r]
			}
			out[2][r] = tfn(vec)
		}
	}
	fac, err := CompileVecFiller(n, b)
	if errs[3] = err; err == nil {
		fac()(0, rows, out[3])
	}

	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 0 && failed != len(errs) {
		t.Fatalf("%s: paths disagree on failure: eval=%v row=%v state=%v vector=%v",
			n, errs[0], errs[1], errs[2], errs[3])
	}
	return out, failed == 0
}

// checkAllPaths demands that the four paths agree bit for bit, and
// reports whether they evaluated n at all (false: all four rejected it).
func checkAllPaths(t testing.TB, n expr.Node, cols [][]float64) bool {
	t.Helper()
	out, ok := runAllPaths(t, n, cols)
	if !ok {
		return false
	}
	names := [4]string{"eval", "row", "state", "vector"}
	for r := range out[0] {
		for p := 1; p < len(out); p++ {
			if !bitsEq(out[0][r], out[p][r]) {
				t.Fatalf("%s at x=%v y=%v z=%v: %s %v (%#x) vs %s %v (%#x)", n,
					cols[0][r], cols[1][r], cols[2][r],
					names[0], out[0][r], math.Float64bits(out[0][r]),
					names[p], out[p][r], math.Float64bits(out[p][r]))
			}
		}
	}
	return true
}

// TestScalarPathsAgree is the generator-driven differential: random trees
// over the whole function table, each variable sweeping the adversarial
// values against random partners.
func TestScalarPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rows := len(scalarVars) * len(adversarial) * 4
	for trial := 0; trial < 1000; trial++ {
		n := genScalar(rng, 1+rng.Intn(4))
		cols := make([][]float64, len(scalarVars))
		for i := range cols {
			cols[i] = make([]float64, rows)
			for r := range cols[i] {
				if rng.Intn(2) == 0 {
					cols[i][r] = adversarial[rng.Intn(len(adversarial))]
				} else {
					cols[i][r] = (rng.Float64() - 0.5) * 200
				}
			}
		}
		// Every adversarial value meets every variable at least once.
		for i := range cols {
			for a, v := range adversarial {
				cols[i][(i*len(adversarial)+a)%rows] = v
			}
		}
		checkAllPaths(t, n, cols)
	}
}

// TestConstPowReductionIsShared pins the cases where the reduced kernels
// and math.Pow differ, so the agreement above is known to come from one
// shared reduction and not from the two happening to round alike.
func TestConstPowReductionIsShared(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if got := expr.ConstPow(0.5).Unary(negZero); !math.Signbit(got) || math.Signbit(math.Pow(negZero, 0.5)) {
		t.Fatalf("x^0.5 at -0: reduction %v, Pow %v: expected them to differ in sign", got, math.Pow(negZero, 0.5))
	}
	// StateTask's fused sum(col^4) kernel calls Pow because 4 has no
	// reduction; giving it one must change that kernel too.
	if expr.ConstPow(4) != nil {
		t.Error("x^4 has a reduction; the KernelSumPow k=4 loop in tasks.go must follow it")
	}
	cols := [][]float64{{negZero, 5e-324, -3, 1e200}, {1, 1, 1, 1}, {1, 1, 1, 1}}
	for _, src := range []string{"x^0.5", "x^2", "x^3", "x^(-1)", "x^0", "0^0", "x^y"} {
		checkAllPaths(t, expr.MustParse(src), cols)
	}
}

// TestFuncTableComplete: every entry of the function table parses (and
// only at its arity — arity errors are the parser's), evaluates, compiles
// for both environments and vectorizes.
func TestFuncTableComplete(t *testing.T) {
	cols := [][]float64{{2, -2, 0.25}, {3, 0.5, -1}, {1, 1, 1}}
	for name, f := range expr.Funcs {
		unary := f.Arity == 1
		if unary != (f.Unary != nil) || unary != (f.UnaryVec != nil) || unary == (f.Binary != nil) || f.Arity < 1 || f.Arity > 2 {
			t.Errorf("%s: arity %d with unary=%v unaryVec=%v binary=%v", name, f.Arity, f.Unary != nil, f.UnaryVec != nil, f.Binary != nil)
			continue
		}
		if expr.AggregateFuncs[name] {
			t.Errorf("%s is both a scalar and an aggregate function", name)
		}
		args := scalarVars[:f.Arity]
		n, err := expr.Parse(name + "(" + strings.Join(args, ",") + ")")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, wrong := range []int{f.Arity - 1, f.Arity + 1} {
			if _, err := expr.Parse(name + "(" + strings.Join(scalarVars[:wrong], ",") + ")"); err == nil {
				t.Errorf("%s parsed with %d argument(s), arity is %d", name, wrong, f.Arity)
			}
		}
		if !checkAllPaths(t, n, cols) {
			t.Errorf("%s: no path evaluates it", name)
		}
	}
}

// FuzzCompile fuzzes expression text and a value triple through the four
// paths: whatever parses as a scalar expression must either fail
// everywhere (a variable outside x, y, z) or agree bit for bit.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		"x", "x^2 + y^3 - z^(-1)", "x^0.5", "0^0", "x^y", "sqrt(x)/ln(y)",
		"log(x, y) * pow(y, z)", "abs(sgn(cbrt(inv(x))))", "exp(x) - -y", "w + 1",
		"((x*y)^2)^0.5", "x/0", "2^x^y",
	} {
		f.Add(src, 1.5, -2.0, 0.0)
		f.Add(src, math.Inf(-1), math.Copysign(0, -1), math.NaN())
	}
	f.Fuzz(func(t *testing.T, src string, x, y, z float64) {
		n, err := expr.Parse(src)
		if err != nil || expr.ContainsAggregate(n) {
			return
		}
		checkAllPaths(t, n, [][]float64{{x, y, z}, {y, z, x}, {z, x, y}})
	})
}
