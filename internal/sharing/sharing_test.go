package sharing

import (
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
)

// st builds a Sum/Prod state over base x with the given chain.
func st(op canonical.AggOp, prims ...scalar.Prim) canonical.State {
	return canonical.State{Op: op, F: scalar.NewChain(prims...), Base: &expr.Var{Name: "x"}}
}

// apply computes a state over a multiset directly (ground truth).
func apply(s canonical.State, xs []float64) float64 {
	acc := s.MergeIdentity()
	for _, x := range xs {
		if s.Op == canonical.OpCount {
			acc = s.Merge(acc, 1)
		} else {
			acc = s.Merge(acc, s.F.Eval(x))
		}
	}
	return acc
}

// checkShare asserts the sharing outcome and, when shared, validates
// s1(X) = r(s2(X)) on fresh random positive multisets.
func checkShare(t *testing.T, s1, s2 canonical.State, positive, want bool) {
	t.Helper()
	r, ok := Share(s1, s2, positive)
	if ok != want {
		t.Fatalf("Share(%s, %s, pos=%v) = %v, want %v", s1.Render(), s2.Render(), positive, ok, want)
	}
	if !ok {
		return
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(6)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = 0.3 + rng.Float64()*3
			if !positive && rng.Intn(2) == 0 {
				xs[j] = -xs[j]
			}
		}
		v1 := apply(s1, xs)
		v2 := apply(s2, xs)
		if math.IsNaN(v1) || math.IsNaN(v2) {
			continue
		}
		got := r.Eval(v2)
		if math.Abs(got-v1) > 1e-6*(1+math.Abs(v1)) {
			t.Fatalf("rewriting %s of %s->%s wrong: r(%v)=%v, want %v (X=%v)",
				r, s2.Render(), s1.Render(), v2, got, v1, xs)
		}
	}
}

func TestIdenticalStatesShare(t *testing.T) {
	s := st(canonical.OpSum, scalar.PowerP(2))
	r, ok := Share(s, s, false)
	if !ok || !r.IsIdentity() {
		t.Fatalf("identical states must share via identity, got %v %v", r, ok)
	}
}

func TestCase21SumSum(t *testing.T) {
	// Σ4x² shares Σx² with r = 4x.
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2), scalar.Linear(4)),
		st(canonical.OpSum, scalar.PowerP(2)), false, true)
	// Σ4x² shares Σ(3x)² = Σ9x² with r = (4/9)x.
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2), scalar.Linear(4)),
		st(canonical.OpSum, scalar.Linear(3), scalar.PowerP(2)), false, true)
	// Σ6x³ shares Σ(5x)³ (the paper's Example 5.2 generalization).
	checkShare(t, st(canonical.OpSum, scalar.PowerP(3), scalar.Linear(6)),
		st(canonical.OpSum, scalar.Linear(5), scalar.PowerP(3)), false, true)
	// Σx² does not share Σx³ (distinct exponents).
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2)),
		st(canonical.OpSum, scalar.PowerP(3)), true, false)
}

func TestCase22SumProd(t *testing.T) {
	// Σln x shares Πx with r = ln x (the gm ↔ moment-sketch bridge).
	checkShare(t, st(canonical.OpSum, scalar.LogP(scalar.E)),
		st(canonical.OpProd), true, true)
	// Example 4.2: Σ4x shares Π2^x with r = 4·log₂x.
	checkShare(t, st(canonical.OpSum, scalar.Linear(4)),
		st(canonical.OpProd, scalar.ExpP(2)), true, true)
	// Σx does not share Πx (no valid log shape: g = ln is fine... it is
	// actually shareable: Σx = ln(Πe^x)? No: f2 = id, g = f1∘f2⁻¹ = x,
	// which is not a·log_b x).
	checkShare(t, st(canonical.OpSum),
		st(canonical.OpProd), true, false)
}

func TestCase23ProdSum(t *testing.T) {
	// Πx shares Σln x with r = e^x (paper §2: gm from the moment sketch).
	checkShare(t, st(canonical.OpProd),
		st(canonical.OpSum, scalar.LogP(scalar.E)), true, true)
	// Πe^x shares Σx with r = e^x.
	checkShare(t, st(canonical.OpProd, scalar.ExpP(scalar.E)),
		st(canonical.OpSum), true, true)
	// Π2^x shares Σ4x with r = 2^(x/4).
	checkShare(t, st(canonical.OpProd, scalar.ExpP(2)),
		st(canonical.OpSum, scalar.Linear(4)), true, true)
	// Πx does not share Σx.
	checkShare(t, st(canonical.OpProd),
		st(canonical.OpSum), true, false)
}

func TestCase24ProdProd(t *testing.T) {
	// Πx² shares Πx over positive data with r = x².
	checkShare(t, st(canonical.OpProd, scalar.PowerP(2)),
		st(canonical.OpProd), true, true)
	// Πx² shares Πx⁴ even over mixed-sign data: r = √x and Πx⁴ > 0.
	checkShare(t, st(canonical.OpProd, scalar.PowerP(2)),
		st(canonical.OpProd, scalar.PowerP(4)), false, true)
	// Πx² does not share Πx³ on mixed-sign data (sign condition of 2.4
	// fails: (Πx³) may be negative and |x|^(2/3) cannot recover it).
	checkShare(t, st(canonical.OpProd, scalar.PowerP(2)),
		st(canonical.OpProd, scalar.PowerP(3)), false, false)
	// ...but it does over positive data.
	checkShare(t, st(canonical.OpProd, scalar.PowerP(2)),
		st(canonical.OpProd, scalar.PowerP(3)), true, true)
}

func TestCase1NoShare(t *testing.T) {
	// f1 injective, f2 even: Σx³ does not share Σx².
	checkShare(t, st(canonical.OpSum, scalar.PowerP(3)),
		st(canonical.OpSum, scalar.PowerP(2)), false, false)
	// Dual: Σx² does not share Σx³ over reals.
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2)),
		st(canonical.OpSum, scalar.PowerP(3)), false, false)
}

func TestCase3BothEven(t *testing.T) {
	// Σ4x² shares Σ9x² on mixed-sign data: both even, reduce to |x|.
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2), scalar.Linear(4)),
		st(canonical.OpSum, scalar.PowerP(2), scalar.Linear(9)), false, true)
	// Σx² does not share Σx⁴ (g = √x is not linear).
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2)),
		st(canonical.OpSum, scalar.PowerP(4)), false, false)
}

func TestCountMinMax(t *testing.T) {
	cnt := canonical.State{Op: canonical.OpCount, Base: &expr.Num{Val: 1}}
	if _, ok := Share(cnt, cnt, false); !ok {
		t.Error("count must share count")
	}
	if _, ok := Share(cnt, st(canonical.OpSum), false); ok {
		t.Error("count must not share Σx")
	}
	mn := st(canonical.OpMin)
	mx := st(canonical.OpMax)
	if _, ok := Share(mn, mn, false); !ok {
		t.Error("min must share min")
	}
	if _, ok := Share(mn, mx, false); ok {
		t.Error("min must not share max")
	}
}

func TestDifferentBasesNoShare(t *testing.T) {
	s1 := canonical.State{Op: canonical.OpSum, F: scalar.NewChain(), Base: &expr.Var{Name: "x"}}
	s2 := canonical.State{Op: canonical.OpSum, F: scalar.NewChain(), Base: expr.MustParse("x*y")}
	if _, ok := Share(s1, s2, true); ok {
		t.Error("states over different abstract columns must not share")
	}
}

func TestLogOfSquareSharesLog(t *testing.T) {
	// Σln(x²) shares Σln(x) over positive data with r = 2x.
	checkShare(t, st(canonical.OpSum, scalar.PowerP(2), scalar.LogP(scalar.E)),
		st(canonical.OpSum, scalar.LogP(scalar.E)), true, true)
}

func TestSymbolicDecisionConditions(t *testing.T) {
	// Σx^p shares Σ p2·x^p1 iff p = p1 (the paper's running example).
	f1 := scalar.NewChain(scalar.Prim{Kind: scalar.KPower, A: scalar.Param("p")})
	f2 := scalar.NewChain(
		scalar.Prim{Kind: scalar.KPower, A: scalar.Param("p1")},
		scalar.Prim{Kind: scalar.KLinear, A: scalar.Param("p2")})
	d := Decide(canonical.OpSum, f1, canonical.OpSum, f2, true)
	if !d.OK {
		t.Fatal("symbolic decision should succeed with conditions")
	}
	if len(d.Conds) == 0 {
		t.Fatal("expected parameter conditions")
	}
	// Condition holds when p = p1 = 3.
	bind := map[string]float64{"p": 3, "p1": 3, "p2": 5}
	for _, c := range d.Conds {
		v, err := scalar.CEval(c.C, bind)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-c.Want) > 1e-9 {
			t.Errorf("condition %v = %v, want %v under p=p1", c.C, v, c.Want)
		}
	}
	// And fails when p ≠ p1.
	bind2 := map[string]float64{"p": 3, "p1": 2, "p2": 5}
	holds := true
	for _, c := range d.Conds {
		v, _ := scalar.CEval(c.C, bind2)
		if math.Abs(v-c.Want) > 1e-9 {
			holds = false
		}
	}
	if holds {
		t.Error("conditions should fail when p ≠ p1")
	}
	// The rewriting chain evaluates correctly under the binding: s1 = Σx³,
	// s2 = Σ5x³, r should give s1 = s2/5.
	v, err := d.R.EvalWith(10, bind)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-9 {
		t.Errorf("r(10) = %v, want 2", v)
	}
}

func TestSymbolicStrongEdge(t *testing.T) {
	// Σ p·x shares Πp^x... no wait: Σln x and Πx: with symbolic linear
	// parameter, Σ p·ln x shares Πx unconditionally (strong edge).
	f1 := scalar.NewChain(scalar.LogP(scalar.E), scalar.Prim{Kind: scalar.KLinear, A: scalar.Param("p")})
	f2 := scalar.IdentityChain()
	d := Decide(canonical.OpSum, f1, canonical.OpProd, f2, true)
	if !d.OK {
		t.Fatal("Σp·ln x should share Πx")
	}
	if len(d.Conds) != 0 {
		t.Errorf("expected strong (unconditional) edge, got conds %v", d.Conds)
	}
}

// TestShareProperty: constructed shares are always found. For random
// injective chains f2 and random linear tweaks a, Σ(a·f2) shares Σf2.
func TestSharePropertySumLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for i := 0; i < 300; i++ {
		f2 := randomInjectiveChain(rng)
		a := float64(rng.Intn(9) + 2)
		f1 := f2.Then(scalar.Linear(a))
		s1 := canonical.State{Op: canonical.OpSum, F: f1, Base: &expr.Var{Name: "x"}}
		s2 := canonical.State{Op: canonical.OpSum, F: f2, Base: &expr.Var{Name: "x"}}
		r, ok := Share(s1, s2, true)
		if !ok {
			t.Fatalf("Σ%v·f should share Σf for f=%s", a, f2)
		}
		// r must be multiplication by a.
		got := r.Eval(7)
		if math.Abs(got-7*a) > 1e-6*(1+7*a) {
			t.Fatalf("r(7) = %v, want %v (f=%s)", got, 7*a, f2)
		}
	}
}

// TestShareSymmetricPairs: sharing both ways implies mutually inverse
// rewritings (the equivalence classes of §5.2).
func TestShareSymmetricPairs(t *testing.T) {
	s1 := st(canonical.OpSum, scalar.LogP(scalar.E))
	s2 := canonical.State{Op: canonical.OpProd, F: scalar.IdentityChain(), Base: &expr.Var{Name: "x"}}
	r12, ok12 := Share(s1, s2, true)
	r21, ok21 := Share(s2, s1, true)
	if !ok12 || !ok21 {
		t.Fatal("Σln x and Πx must share both ways")
	}
	for _, v := range []float64{0.5, 1, 2, 5} {
		back := r21.Eval(r12.Eval(v))
		if math.Abs(back-v) > 1e-9*(1+v) {
			t.Fatalf("rewritings not inverse: %v -> %v", v, back)
		}
	}
}

func randomInjectiveChain(rng *rand.Rand) scalar.Chain {
	prims := []scalar.Prim{}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			prims = append(prims, scalar.Linear(float64(rng.Intn(4)+2)))
		case 1:
			prims = append(prims, scalar.PowerP([]float64{0.5, 3, -1}[rng.Intn(3)]))
		case 2:
			prims = append(prims, scalar.LogP(scalar.E))
		default:
			prims = append(prims, scalar.ExpP([]float64{2, scalar.E}[rng.Intn(2)]))
		}
	}
	return scalar.NewChain(prims...)
}

func TestNoShareAcrossConstant(t *testing.T) {
	s1 := st(canonical.OpSum, scalar.Const(3))
	s2 := st(canonical.OpSum)
	if _, ok := Share(s1, s2, true); ok {
		t.Error("constant chains must not share")
	}
}

func TestMomentSketchServesGM(t *testing.T) {
	// The paper's §2 example: the moment sketch caches Σln(x); the
	// geometric mean's Πx state must be computable from it.
	msLn := st(canonical.OpSum, scalar.LogP(scalar.E))
	gmProd := canonical.State{Op: canonical.OpProd, F: scalar.IdentityChain(), Base: &expr.Var{Name: "x"}}
	r, ok := Share(gmProd, msLn, true)
	if !ok {
		t.Fatal("Πx must share Σln x")
	}
	// Πx = exp(Σ ln x): for X = {1,2,3}, Σln = ln6, r(ln6) = 6.
	if got := r.Eval(math.Log(6)); math.Abs(got-6) > 1e-9 {
		t.Fatalf("r(ln 6) = %v, want 6", got)
	}
}
