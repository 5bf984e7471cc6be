package symbolic

import (
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/sharing"
)

// instanceParams are the concrete values each parameterized family is
// instantiated at: scales for a·x, exponents for x^p (including a root),
// and bases for log_b x and b^x.
var instanceParams = map[scalar.Kind][]float64{
	scalar.KLinear: {2, 3},
	scalar.KPower:  {2, 3, 0.5},
	scalar.KLog:    {math.E, 2},
	scalar.KExp:    {math.E, 2},
}

// instances returns every concrete state of sp's shapes over base x, each
// parameter taking each of its family's instanceParams.
func instances(sp *Space) []canonical.State {
	var out []canonical.State
	base := &expr.Var{Name: "x"}
	for _, s := range sp.States {
		chains := []scalar.Chain{scalar.IdentityChain()}
		for _, p := range s.F.Prims {
			var next []scalar.Chain
			for _, c := range chains {
				for _, v := range instanceParams[p.Kind] {
					next = append(next, c.Then(scalar.Prim{Kind: p.Kind, A: scalar.Num(v)}))
				}
			}
			chains = next
		}
		for _, c := range chains {
			out = append(out, canonical.State{Op: s.Op, F: c, Base: base})
		}
	}
	return out
}

// evalOver folds a state over a multiset of base values; ok is false
// where the state is undefined or overflows.
func evalOver(s canonical.State, xs []float64) (float64, bool) {
	acc := s.MergeIdentity()
	for _, x := range xs {
		acc = s.Update(acc, s.F.Eval(x))
	}
	return acc, !math.IsNaN(acc) && !math.IsInf(acc, 0)
}

// TestDirectDecisionCoversSaggs2 checks, over saggs_2's shapes at
// concrete parameters (Σa·x^e, Σlog, Πx^p, exp shapes and their length-2
// compositions), that the direct Theorem 4.1 decision alone is enough to
// serve a shared hit. For every ordered pair ShareDetail accepts over
// positive data, the decision's own r compiles and r(s) equals the
// directly evaluated state on random positive multisets; where the
// precomputed space's ShareVia also answers, its function agrees with r.
// The cache applies only d.R.Compile(), so this is the proof that
// dropping ShareVia from it lost no hit and changed no value beyond
// rounding.
func TestDirectDecisionCoversSaggs2(t *testing.T) {
	sp := NewSpace(2)
	states := instances(sp)
	rng := rand.New(rand.NewSource(31))
	sets := make([][]float64, 24)
	for i := range sets {
		xs := make([]float64, 1+rng.Intn(5))
		for j := range xs {
			xs[j] = 0.5 + rng.Float64()*1.5
		}
		sets[i] = xs
	}
	accepted, viaAgreed := 0, 0
	byOps := map[[2]canonical.AggOp]int{}
	for _, s1 := range states {
		for _, s2 := range states {
			d, ok := sharing.ShareDetail(s1, s2, true)
			if !ok {
				continue
			}
			accepted++
			byOps[[2]canonical.AggOp{s1.Op, s2.Op}]++
			r, err := d.R.Compile()
			if err != nil {
				t.Fatalf("%s ← %s: r = %s does not compile: %v", s1.Key(), s2.Key(), d.R.Render("s"), err)
			}
			via, viaOK := sp.ShareVia(s1.Op, s1.F.NormalizeReal(), s2.Op, s2.F.NormalizeReal())
			if viaOK {
				viaAgreed++
			}
			valid := 0
			for _, xs := range sets {
				want, ok1 := evalOver(s1, xs)
				s, ok2 := evalOver(s2, xs)
				if !ok1 || !ok2 {
					continue
				}
				valid++
				got := r(s)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s ← %s via %s on %v: r(s) = %v, state = %v", s1.Key(), s2.Key(), d.R.Render("s"), xs, got, want)
				}
				if viaOK {
					if v := via(s); math.Abs(v-got) > 1e-12*(1+math.Abs(got)) {
						t.Fatalf("%s ← %s on %v: ShareVia gives %v, the decision's r %v", s1.Key(), s2.Key(), xs, v, got)
					}
				}
			}
			if valid == 0 {
				t.Errorf("%s ← %s: no multiset where both states are defined", s1.Key(), s2.Key())
			}
		}
	}
	t.Logf("%d concrete states, %d accepted ordered pairs, ShareVia answered %d of them, by (op1, op2): %v",
		len(states), accepted, viaAgreed, byOps)
	for _, ops := range [][2]canonical.AggOp{
		{canonical.OpSum, canonical.OpSum}, {canonical.OpSum, canonical.OpProd},
		{canonical.OpProd, canonical.OpSum}, {canonical.OpProd, canonical.OpProd},
	} {
		if byOps[ops] == 0 {
			t.Errorf("no accepted pair for Theorem 4.1 case %v ← %v", ops[0], ops[1])
		}
	}
	if viaAgreed == 0 {
		t.Error("ShareVia answered no accepted pair; the comparison checked nothing")
	}
}
