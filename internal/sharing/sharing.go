// Package sharing implements the SUDAF sharing problem: deciding whether
// an aggregation state s1 can be computed from a cached aggregation state
// s2 through a scalar rewriting function r with s1(X) = r(s2(X)) for every
// multiset X (Definition 3.1). The general problem is undecidable
// (Theorem 3.2); within SUDAF's restricted function classes Theorem 4.1
// gives a complete characterization, implemented here:
//
//	case 1   f1 injective, f2 not injective  → no sharing
//	case 2.1 (Σ,Σ) f1∘f2⁻¹ = a·x             → r = a·x
//	case 2.2 (Σ,Π) f1∘f2⁻¹ = a·log_b|x|      → r = a·log_b x
//	case 2.3 (Π,Σ) f1∘f2⁻¹ = b^(a·x)         → r = b^(a·x)
//	case 2.4 (Π,Π) f1∘f2⁻¹ = ±|x|^a          → r = x^a (sign-checked)
//	case 3   both even → reduce to the positive domain (|x|, §5.3)
//	case 4   neither → splitting rules at decomposition, else syntactic
//
// The decision procedure works symbolically: chains may carry named
// parameters, in which case the result includes parameter conditions
// (the "weak" sharing edges of Figure 4). For concrete states the
// algebraic decision is additionally verified numerically on random
// multisets, which guards the sign subtleties of cases 2.4 and 3 without
// trusting the rewrite algebra beyond its domain of soundness.
package sharing

import (
	"math"
	"math/rand"

	"sudaf/internal/canonical"
	"sudaf/internal/scalar"
)

// Cond is a parameter condition: CEval(C) must equal Want.
type Cond struct {
	C    scalar.Coef
	Want float64
}

// Decision is the outcome of the symbolic sharing decision.
type Decision struct {
	// OK reports whether s1 shares s2 (subject to Conds).
	OK bool
	// R is the rewriting chain: s1(X) = R(s2(X)).
	R scalar.Chain
	// Conds are parameter conditions under which the sharing holds
	// ("weak" sharing); empty for unconditional ("strong") sharing.
	Conds []Cond
	// PositiveOnly: the rewriting is guaranteed only when the underlying
	// data (after the state's base expression) is positive, or when both
	// scalar functions are even (sign-oblivious).
	PositiveOnly bool
}

// no is the negative decision.
func no() Decision { return Decision{} }

// Decide solves the sharing problem share(s1, s2) at the level of
// aggregate ops and scalar chains. Chains with symbolic parameters are
// decided over the positive domain with parameter conditions; concrete
// chains are decided per the full Theorem 4.1 case analysis.
// positiveData asserts the underlying values are known positive, which
// makes evenness immaterial (every non-constant PS∘ function is injective
// on the positive half-line).
func Decide(op1 canonical.AggOp, f1 scalar.Chain, op2 canonical.AggOp, f2 scalar.Chain, positiveData bool) Decision {
	// count/min/max share only themselves (identity rewriting).
	if op1 == canonical.OpCount || op2 == canonical.OpCount ||
		op1 == canonical.OpMin || op2 == canonical.OpMin ||
		op1 == canonical.OpMax || op2 == canonical.OpMax {
		if op1 == op2 && f1.Equal(f2) {
			return Decision{OK: true, R: scalar.IdentityChain()}
		}
		return no()
	}

	symbolic := len(f1.Params()) > 0 || len(f2.Params()) > 0
	posOnly := symbolic || positiveData
	if !symbolic && !positiveData {
		p1 := f1.Classify()
		p2 := f2.Classify()
		if p1.Constant || p2.Constant {
			return no()
		}
		posOnly = p1.NeedsPositive || p2.NeedsPositive
		if !p2.Injective {
			// Case 1 and case 3: a non-injective f2 is even (Figure 3).
			// Only an even f1 can factor through it; both sides are then
			// sign-oblivious and the problem reduces to x > 0 (§5.3).
			if !p2.Even || !p1.Even {
				return no()
			}
			posOnly = true
		} else if !p1.Injective && !p1.Even {
			return no()
		} else if p1.Even && p2.Injective && !p2.Even {
			// f1 = g∘f2 with f1 even and f2 injective requires g to erase
			// exactly the sign structure f2 preserves; over M(Q) no such
			// computable r exists in our classes (paper case 1 dual).
			// Over positive domains evenness is immaterial, so allow it
			// only when f2's own domain forces positivity.
			if !p2.NeedsPositive {
				return no()
			}
		}
	}

	f1p := f1.Normalize()
	f2p := f2.Normalize()
	inv, ok := f2p.Inverse()
	if !ok {
		return no()
	}
	// The composition f1∘f2⁻¹ is only ever applied to values in the range
	// of f2, where the inverse cancellation is exact; normalize assuming
	// positive intermediates. Concrete decisions are verified numerically
	// afterwards, so over-eager cancellation cannot produce a wrong share.
	g := inv.Compose(f1p).NormalizeAssumePositive()

	var conds []Cond
	var matched bool
	switch {
	case op1 == canonical.OpSum && op2 == canonical.OpSum:
		conds, matched = matchShape(g, shapeLinear)
	case op1 == canonical.OpSum && op2 == canonical.OpProd:
		conds, matched = matchShape(g, shapeLogLinear)
	case op1 == canonical.OpProd && op2 == canonical.OpSum:
		conds, matched = matchShape(g, shapeExp)
	case op1 == canonical.OpProd && op2 == canonical.OpProd:
		conds, matched = matchShape(g, shapePower)
	default:
		return no()
	}
	if !matched {
		return no()
	}
	if op2 == canonical.OpProd {
		// r reads a product of f2-values: sound sign handling needs the
		// positive domain (or the §5.3 sign-split cache layout).
		posOnly = true
	}
	return Decision{OK: true, R: g, Conds: conds, PositiveOnly: posOnly}
}

// Shape targets for f1∘f2⁻¹ per Theorem 4.1.
const (
	shapeLinear    = iota // a·x (case 2.1)
	shapeLogLinear        // a·log_b x (case 2.2)
	shapeExp              // b^(a·x) (case 2.3)
	shapePower            // |x|^a (case 2.4)
)

// matchShape checks whether the normalized chain g has the target shape,
// possibly under parameter conditions. The returned conditions force
// stray exponents/coefficients to 1, at which point g itself evaluates as
// the required rewriting function.
func matchShape(g scalar.Chain, shape int) ([]Cond, bool) {
	var conds []Cond
	needOne := func(c scalar.Coef) bool {
		if v, ok := c.(scalar.Num); ok {
			return approxOne(float64(v))
		}
		conds = append(conds, Cond{C: c, Want: 1})
		return true
	}
	prims := g.Prims
	switch shape {
	case shapeLinear:
		for _, p := range prims {
			switch p.Kind {
			case scalar.KLinear:
				// any coefficient is fine
			case scalar.KPower:
				if !needOne(p.A) {
					return nil, false
				}
			default:
				return nil, false
			}
		}
		return conds, true
	case shapePower:
		for _, p := range prims {
			switch p.Kind {
			case scalar.KPower:
				// any exponent is fine
			case scalar.KLinear:
				if !needOne(p.A) {
					return nil, false
				}
			default:
				return nil, false
			}
		}
		return conds, true
	case shapeLogLinear:
		logs := 0
		for i, p := range prims {
			switch p.Kind {
			case scalar.KLog:
				logs++
				if i != 0 || logs > 1 {
					return nil, false
				}
			case scalar.KLinear:
				if i == 0 {
					return nil, false
				}
			case scalar.KPower:
				if i == 0 || !needOne(p.A) {
					return nil, false
				}
			default:
				return nil, false
			}
		}
		return conds, logs == 1
	case shapeExp:
		exps := 0
		for _, p := range prims {
			switch p.Kind {
			case scalar.KExp:
				exps++
				if exps > 1 {
					return nil, false
				}
			case scalar.KLinear, scalar.KPower:
				if !needOne(p.A) {
					return nil, false
				}
			default:
				return nil, false
			}
		}
		return conds, exps == 1
	}
	return nil, false
}

func approxOne(v float64) bool { return math.Abs(v-1) <= 1e-9 }

// Share decides whether concrete state s1 shares concrete state s2 and
// returns the rewriting chain. Bases must denote the same abstract column
// (the data dimension is handled by the caller's fingerprinting). The
// algebraic decision is verified numerically before being accepted.
// positiveData tells the verifier the underlying values are known > 0.
func Share(s1, s2 canonical.State, positiveData bool) (scalar.Chain, bool) {
	d, ok := ShareDetail(s1, s2, positiveData)
	return d.R, ok
}

// ShareDetail is Share with provenance: on success the returned Decision
// carries the rewriting chain R with s1 = R∘s2, the parameter conditions
// that were checked (empty for strong sharing), and whether the
// rewriting is sound only over positive data. EXPLAIN uses it to report
// *why* a shared hit happened.
func ShareDetail(s1, s2 canonical.State, positiveData bool) (Decision, bool) {
	if s1.Key() == s2.Key() {
		return Decision{OK: true, R: scalar.IdentityChain()}, true
	}
	if s1.Op != canonical.OpCount && s2.Op != canonical.OpCount {
		if s1.Base.String() != s2.Base.String() {
			return Decision{}, false
		}
	}
	d := Decide(s1.Op, s1.F, s2.Op, s2.F, positiveData)
	if !d.OK {
		return Decision{}, false
	}
	for _, c := range d.Conds {
		v, err := scalar.CEval(c.C, nil)
		if err != nil || math.Abs(v-c.Want) > 1e-9 {
			return Decision{}, false
		}
	}
	if d.PositiveOnly && !positiveData {
		// Without the sign-split cache companion, positive-only
		// rewritings cannot be trusted on mixed-sign data. Verify on the
		// real domain anyway: some (e.g. odd/even-compatible powers)
		// remain valid; reject the rest.
		if !verify(s1, s2, d.R, false) {
			return Decision{}, false
		}
		return d, true
	}
	if !verify(s1, s2, d.R, positiveData || d.PositiveOnly) {
		return Decision{}, false
	}
	return d, true
}

// verify empirically checks s1(X) = r(s2(X)) over random multisets drawn
// from the positive or mixed-sign domain. Multisets on which either side
// is undefined are skipped; at least minValid checks must pass.
func verify(s1, s2 canonical.State, r scalar.Chain, positive bool) bool {
	const (
		trials   = 60
		minValid = 12
	)
	rng := rand.New(rand.NewSource(0x5daf))
	valid := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(5)
		xs := make([]float64, n)
		for i := range xs {
			v := 0.25 + rng.Float64()*4
			if !positive && rng.Intn(2) == 0 {
				v = -v
			}
			xs[i] = v
		}
		v1, ok1 := evalState(s1, xs)
		v2, ok2 := evalState(s2, xs)
		if !ok1 || !ok2 {
			continue
		}
		got, err := r.EvalWith(v2, nil)
		if err != nil || math.IsNaN(got) || math.IsInf(got, 0) {
			return false // r itself must be defined wherever s2 is
		}
		if math.Abs(got-v1) > 1e-6*(1+math.Abs(v1)) {
			return false
		}
		valid++
	}
	return valid >= minValid
}

// evalState computes a state over a raw value multiset (the base
// expression is taken as already applied — states being compared share
// the same base).
func evalState(s canonical.State, xs []float64) (float64, bool) {
	acc := s.MergeIdentity()
	for _, x := range xs {
		var fx float64
		if s.Op == canonical.OpCount {
			fx = 1
		} else {
			fx = s.F.Eval(x)
		}
		if math.IsNaN(fx) || math.IsInf(fx, 0) {
			return 0, false
		}
		acc = s.Merge(acc, fx)
	}
	if math.IsNaN(acc) || math.IsInf(acc, 0) {
		return 0, false
	}
	return acc, true
}
