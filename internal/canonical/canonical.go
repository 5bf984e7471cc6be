// Package canonical derives the canonical form of a UDAF from its
// mathematical expression, per Section 3.1 and Section 4.1 of the SUDAF
// paper: a well-formed aggregation α(X) = T(F(x₁) ⊕ … ⊕ F(xₙ)) is
// represented as a set of aggregation states s_j = Σ⊕_j f_j(base_j) plus a
// terminating scalar expression T over the states.
//
// Decomposition applies the paper's splitting rules (SR1 for sums of
// scalar functions under Σ, SR2 for products under Π), hoists linear
// coefficients out of Σ-states and power exponents out of Π-states into T
// (so stored states are the representatives of their symbolic equivalence
// classes, Section 5.3), and deduplicates states across the expression.
package canonical

import (
	"fmt"
	"math"
	"strings"

	"sudaf/internal/expr"
	"sudaf/internal/scalar"
)

// AggOp is the primitive aggregate (the ⊕ operation) of a state.
type AggOp int

const (
	// OpSum is Σ.
	OpSum AggOp = iota
	// OpProd is Π.
	OpProd
	// OpCount is count(*) (a Σ of 1s, kept distinct so it can be computed
	// without reading any column and shared with every query shape).
	OpCount
	// OpMin and OpMax are the order-statistic built-ins; per the paper
	// they share only with themselves.
	OpMin
	OpMax
)

func (o AggOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpCount:
		return "count"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("AggOp(%d)", int(o))
}

// State is one aggregation state: Op over F applied to the Base input
// expression (an expression over the UDAF's formal parameters; the
// "abstract column" of the paper for multivariate cases like x·y).
type State struct {
	Op   AggOp
	F    scalar.Chain // per-tuple scalar function, real-domain normalized
	Base expr.Node    // canonical base input expression
}

// Key is the state's identity string: equal keys ⇔ same state.
func (s State) Key() string {
	if s.Op == OpCount {
		return "count()"
	}
	return s.Op.String() + "[" + s.F.NormalizeReal().String() + "](" + s.Base.String() + ")"
}

// Render returns a human-readable formula, e.g. "sum((x)^2)".
func (s State) Render() string {
	if s.Op == OpCount {
		return "count()"
	}
	return s.Op.String() + "(" + s.F.NormalizeReal().Render(s.Base.String()) + ")"
}

// MergeIdentity returns the neutral element of the state's merge
// operation (0 for Σ/count, 1 for Π, ±Inf for min/max).
func (s State) MergeIdentity() float64 {
	switch s.Op {
	case OpProd:
		return 1
	case OpMin:
		return math.Inf(1)
	case OpMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// Merge combines two partial values of the state (the ⊕ of the canonical
// form): a folds the earlier rows, b the later ones. It is associative
// by construction, and for min and max exactly so, bits included (see
// Min), which is what lets partials meet across morsels, deltas and
// window frames in any grouping that keeps row order.
func (s State) Merge(a, b float64) float64 {
	switch s.Op {
	case OpProd:
		return a * b
	case OpMin:
		return Min(a, b)
	case OpMax:
		return Max(a, b)
	default:
		return a + b
	}
}

// MergeInto ⊕-merges morsel partial src into dst, the partial of the
// earlier rows: dst[remap[g]] = dst[remap[g]] ⊕ src[g]. It is the merge
// loop of every task, so the kernels' states and the hardcoded UDAFs'
// merge with the same instructions.
func (s State) MergeInto(dst, src []float64, remap []int32) {
	switch s.Op {
	case OpProd:
		for g, v := range src {
			dst[remap[g]] *= v
		}
	case OpMin:
		for g, v := range src {
			d := &dst[remap[g]]
			*d = Min(*d, v)
		}
	case OpMax:
		for g, v := range src {
			d := &dst[remap[g]]
			*d = Max(*d, v)
		}
	default:
		for g, v := range src {
			dst[remap[g]] += v
		}
	}
}

// MergeVals ⊕-merges two aligned per-group value vectors into a fresh
// vector: out[i] = acc[i] ⊕ delta[i]. This is the delta-fold primitive
// of incremental ingestion — because every state is a ⊕-homomorphism
// over the input multiset, the states of (base ⊎ delta) are exactly
// states(base) ⊕ states(delta), so an append batch folds into cached
// per-group states with one merge per group instead of a rescan. Groups
// absent from the delta pass MergeIdentity() as their delta value.
func (s State) MergeVals(acc, delta []float64) []float64 {
	out := make([]float64, len(acc))
	for i := range acc {
		out[i] = s.Merge(acc[i], delta[i])
	}
	return out
}

// Min is the ⊕ of a min state, a folding the earlier rows: it returns b
// where b < a or b is NaN, and a otherwise. So a fold keeps the last NaN
// of its rows, payload and all, and otherwise the first of its smallest
// values (of +0 and −0, whichever came first). +Inf is an exact
// identity: Min(+Inf, b) = b and Min(a, +Inf) = a, bit for bit. Both
// rules depend only on row order, so Min is exactly associative: any
// split of the rows into morsels, deltas or window stacks yields the
// same bits. It is a select on Float64bits with no branch and no
// arithmetic, so a NaN passes through unchanged and a keyed loop pays
// no mispredicted branch.
func Min(a, b float64) float64 {
	m := -uint64(b2u(b < a) | b2u(b != b))
	return math.Float64frombits(math.Float64bits(b)&m | math.Float64bits(a)&^m)
}

// Max is Min's mirror: b where b > a or b is NaN, a otherwise.
func Max(a, b float64) float64 {
	m := -uint64(b2u(b > a) | b2u(b != b))
	return math.Float64frombits(math.Float64bits(b)&m | math.Float64bits(a)&^m)
}

// b2u is 1 for true, 0 for false, compiled to a SETcc.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Form is the canonical form (F, ⊕, T) of a UDAF.
type Form struct {
	Name   string
	Params []string // formal parameters, e.g. ["x"] or ["x","y"]
	States []State  // s1..sk, deduplicated
	// T is the terminating expression over variables s1..sk.
	T expr.Node
	// Source is the simplified original expression.
	Source expr.Node
	// HardT, when non-nil, is a hardcoded terminating function overriding
	// T (the paper's second definition scenario in §4.1 — e.g. the moment
	// solver approximating a quantile from moment-sketch states).
	HardT func(states []float64) (float64, error)
	// HardTKey, when non-empty, is a complete description of HardT (every
	// parameter its value depends on besides the states), which makes its
	// output column memoizable beside the states it was computed from.
	// Empty for a hardcoded function too cheap to be worth keeping.
	HardTKey string
}

// StateVar returns the T-variable name for state index i (0-based).
func StateVar(i int) string { return fmt.Sprintf("s%d", i+1) }

// String renders the canonical form in the paper's (F, ⊕, T) notation.
func (f *Form) String() string {
	var fs, ops []string
	for _, s := range f.States {
		if s.Op == OpCount {
			fs = append(fs, "1")
			ops = append(ops, "+")
			continue
		}
		fs = append(fs, s.F.NormalizeReal().Render(s.Base.String()))
		switch s.Op {
		case OpProd:
			ops = append(ops, "×")
		case OpMin:
			ops = append(ops, "min")
		case OpMax:
			ops = append(ops, "max")
		default:
			ops = append(ops, "+")
		}
	}
	return fmt.Sprintf("%s = ( F=(%s), ⊕=(%s), T=%s )",
		f.Name, strings.Join(fs, ", "), strings.Join(ops, ", "), f.T.String())
}

// ChainToExpr renders a scalar chain as an expression tree applied to
// inner — used by the baseline's interpreted accumulator, which evaluates
// update statements as boxed expression trees the way PL/pgSQL would.
func ChainToExpr(ch scalar.Chain, inner expr.Node) expr.Node {
	out := inner
	for _, p := range ch.Prims {
		a, err := scalar.CEval(p.A, nil)
		if err != nil {
			return inner // symbolic chains never reach the baseline path
		}
		switch p.Kind {
		case scalar.KConst:
			out = &expr.Num{Val: a}
		case scalar.KLinear:
			out = &expr.Bin{Op: '*', L: &expr.Num{Val: a}, R: out}
		case scalar.KPower:
			out = &expr.Bin{Op: '^', L: out, R: &expr.Num{Val: a}}
		case scalar.KLog:
			if a == scalar.E {
				out = &expr.Call{Name: "ln", Args: []expr.Node{out}}
			} else {
				out = &expr.Call{Name: "log", Args: []expr.Node{&expr.Num{Val: a}, out}}
			}
		case scalar.KExp:
			if a == scalar.E {
				out = &expr.Call{Name: "exp", Args: []expr.Node{out}}
			} else {
				out = &expr.Bin{Op: '^', L: &expr.Num{Val: a}, R: out}
			}
		}
	}
	return out
}

// UpdateExpr renders state i's per-tuple update statement
// s_i := s_i ⊕ F_i(params) as an expression tree over the parameter and
// state variables. Min/max states return nil (they update natively).
func (f *Form) UpdateExpr(i int) expr.Node {
	s := f.States[i]
	sv := &expr.Var{Name: StateVar(i)}
	switch s.Op {
	case OpCount:
		return &expr.Bin{Op: '+', L: sv, R: &expr.Num{Val: 1}}
	case OpSum:
		return &expr.Bin{Op: '+', L: sv, R: ChainToExpr(s.F, s.Base)}
	case OpProd:
		return &expr.Bin{Op: '*', L: sv, R: ChainToExpr(s.F, s.Base)}
	default:
		return nil
	}
}

// decomposer accumulates deduplicated states while rewriting T.
type decomposer struct {
	states []State
	index  map[string]int
	params map[string]bool
}

func (d *decomposer) add(s State) int {
	k := s.Key()
	if i, ok := d.index[k]; ok {
		return i
	}
	d.states = append(d.states, s)
	d.index[k] = len(d.states) - 1
	return len(d.states) - 1
}

func (d *decomposer) stateVar(s State) expr.Node {
	return &expr.Var{Name: StateVar(d.add(s))}
}

// Decompose derives the canonical form of a UDAF given its name, formal
// parameters, and body expression.
func Decompose(name string, params []string, body expr.Node) (*Form, error) {
	// avg(e) is sugar for sum(e)/count().
	body = expr.Rewrite(body, func(n expr.Node) expr.Node {
		if c, ok := n.(*expr.Call); ok && c.Name == "avg" {
			return &expr.Bin{Op: '/',
				L: &expr.Call{Name: "sum", Args: c.Args},
				R: &expr.Call{Name: "count"}}
		}
		return n
	})
	body = expr.Simplify(body)

	d := &decomposer{index: map[string]int{}, params: map[string]bool{}}
	for _, p := range params {
		d.params[p] = true
	}

	T, err := d.rewriteAggs(body)
	if err != nil {
		return nil, fmt.Errorf("UDAF %s: %w", name, err)
	}
	if len(d.states) == 0 {
		return nil, fmt.Errorf("UDAF %s: expression contains no aggregate function", name)
	}
	// The terminating function must be scalar over the states only.
	for _, v := range expr.Vars(T) {
		if !strings.HasPrefix(v, "s") {
			return nil, fmt.Errorf("UDAF %s: terminating function references non-aggregated variable %q", name, v)
		}
	}
	// State bases may reference only the declared formal parameters.
	for _, s := range d.states {
		if s.Op == OpCount {
			continue
		}
		for _, v := range expr.Vars(s.Base) {
			if !d.params[v] {
				return nil, fmt.Errorf("UDAF %s: state %s references undeclared parameter %q", name, s.Render(), v)
			}
		}
	}
	return &Form{
		Name:   name,
		Params: params,
		States: d.states,
		T:      expr.Simplify(T),
		Source: body,
	}, nil
}

// rewriteAggs replaces aggregate calls in n with state variables,
// registering the states, and returns the resulting T fragment.
func (d *decomposer) rewriteAggs(n expr.Node) (expr.Node, error) {
	switch t := n.(type) {
	case *expr.Num, *expr.Var:
		return n, nil
	case *expr.Neg:
		x, err := d.rewriteAggs(t.X)
		if err != nil {
			return nil, err
		}
		return &expr.Neg{X: x}, nil
	case *expr.Bin:
		l, err := d.rewriteAggs(t.L)
		if err != nil {
			return nil, err
		}
		r, err := d.rewriteAggs(t.R)
		if err != nil {
			return nil, err
		}
		return &expr.Bin{Op: t.Op, L: l, R: r}, nil
	case *expr.Call:
		if !expr.AggregateFuncs[t.Name] {
			args := make([]expr.Node, len(t.Args))
			for i, a := range t.Args {
				v, err := d.rewriteAggs(a)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return &expr.Call{Name: t.Name, Args: args}, nil
		}
		return d.aggToStates(t)
	}
	return nil, fmt.Errorf("unsupported node %T", n)
}

// aggToStates converts one aggregate call into (possibly several) states
// combined by a T fragment, applying SR1/SR2 and hoisting.
func (d *decomposer) aggToStates(c *expr.Call) (expr.Node, error) {
	switch c.Name {
	case "count":
		return d.stateVar(State{Op: OpCount, Base: &expr.Num{Val: 1}}), nil
	case "min", "max":
		arg := expr.Simplify(c.Args[0])
		if expr.ContainsAggregate(arg) {
			return nil, fmt.Errorf("nested aggregates are not supported: %s", c)
		}
		op := OpMin
		if c.Name == "max" {
			op = OpMax
		}
		return d.stateVar(State{Op: op, F: scalar.IdentityChain(), Base: arg}), nil
	case "sum":
		return d.sumToStates(expr.Simplify(c.Args[0]))
	case "prod":
		return d.prodToStates(expr.Simplify(c.Args[0]))
	}
	return nil, fmt.Errorf("unsupported aggregate %q", c.Name)
}

// sumToStates implements Σ decomposition with SR1 (Σ(g1±g2) = Σg1 ± Σg2)
// and linear hoisting (Σ c·f = c·Σf).
func (d *decomposer) sumToStates(arg expr.Node) (expr.Node, error) {
	if expr.ContainsAggregate(arg) {
		return nil, fmt.Errorf("nested aggregates are not supported: sum(%s)", arg)
	}
	var parts []expr.Node
	for _, term := range expr.SplitSum(arg) {
		coef, factors := expr.TermParts(term)
		if len(factors) == 0 {
			// Σ of a constant: c·count().
			cnt := d.stateVar(State{Op: OpCount, Base: &expr.Num{Val: 1}})
			parts = append(parts, &expr.Bin{Op: '*', L: &expr.Num{Val: coef}, R: cnt})
			continue
		}
		base, chain, err := extractChain(expr.MulAll(factors))
		if err != nil {
			return nil, err
		}
		// Hoist a trailing linear out of the state: Σ c·f = c·Σf, so the
		// stored state is its equivalence class representative.
		norm := chain.NormalizeReal()
		if k := len(norm.Prims); k > 0 && norm.Prims[k-1].Kind == scalar.KLinear {
			if c, ok := norm.Prims[k-1].A.(scalar.Num); ok {
				coef *= float64(c)
				norm = scalar.Chain{Prims: norm.Prims[:k-1]}
			}
		}
		sv := d.stateVar(State{Op: OpSum, F: norm, Base: base})
		if coef == 1 {
			parts = append(parts, sv)
		} else {
			parts = append(parts, &expr.Bin{Op: '*', L: &expr.Num{Val: coef}, R: sv})
		}
	}
	return expr.AddAll(parts), nil
}

// prodToStates implements Π decomposition with SR2 (Π(g1·g2) = Πg1 · Πg2),
// power hoisting (Π f^c = (Πf)^c) and constant hoisting (Π c·f = c^n·Πf,
// which introduces a count state).
func (d *decomposer) prodToStates(arg expr.Node) (expr.Node, error) {
	if expr.ContainsAggregate(arg) {
		return nil, fmt.Errorf("nested aggregates are not supported: prod(%s)", arg)
	}
	terms := expr.SplitSum(arg)
	if len(terms) > 1 {
		// Π over a sum of scalar functions: not covered by the splitting
		// rules; keep the whole argument as an opaque base (syntactic
		// sharing only), exactly the paper's fallback for case 4.
		base, chain, err := extractChain(arg)
		if err != nil {
			return nil, err
		}
		return d.stateVar(State{Op: OpProd, F: chain.NormalizeReal(), Base: base}), nil
	}
	coef, factors := expr.TermParts(terms[0])
	var parts []expr.Node
	if coef != 1 {
		// Π c·f = c^count · Πf.
		cnt := d.stateVar(State{Op: OpCount, Base: &expr.Num{Val: 1}})
		parts = append(parts, &expr.Bin{Op: '^', L: &expr.Num{Val: coef}, R: cnt})
	}
	for _, f := range factors {
		fbase, fexp := expr.SplitFactor(f)
		base, chain, err := extractChain(fbase)
		if err != nil {
			return nil, err
		}
		// Hoist a trailing power out of the state: Π f^c = (Πf)^c.
		norm := chain.NormalizeReal()
		if k := len(norm.Prims); k > 0 && norm.Prims[k-1].Kind == scalar.KPower {
			if c, ok := norm.Prims[k-1].A.(scalar.Num); ok {
				fexp *= float64(c)
				norm = scalar.Chain{Prims: norm.Prims[:k-1]}
			}
		}
		sv := d.stateVar(State{Op: OpProd, F: norm, Base: base})
		if fexp == 1 {
			parts = append(parts, sv)
		} else {
			parts = append(parts, &expr.Bin{Op: '^', L: sv, R: &expr.Num{Val: fexp}})
		}
	}
	return expr.MulAll(parts), nil
}

// extractChain factors a canonical scalar expression into a base input
// expression and a PS∘ chain applied to it: 4·ln(x)² yields base x and
// chain [log_e, power 2, linear 4]. Expressions that do not fit the
// primitive algebra (sums, abs, sgn, multi-factor products with unequal
// exponents) become opaque bases with identity chains.
func extractChain(n expr.Node) (expr.Node, scalar.Chain, error) {
	n = expr.Simplify(n)
	terms := expr.SplitSum(n)
	if len(terms) > 1 {
		return n, scalar.IdentityChain(), nil
	}
	coef, factors := expr.TermParts(terms[0])
	var base expr.Node
	var chain scalar.Chain
	switch len(factors) {
	case 0:
		return n, scalar.NewChain(scalar.Const(coef)), nil
	case 1:
		fbase, fexp := expr.SplitFactor(factors[0])
		var err error
		base, chain, err = extractAtom(fbase)
		if err != nil {
			return nil, scalar.Chain{}, err
		}
		if fexp != 1 {
			chain = chain.Then(scalar.PowerP(fexp))
		}
	default:
		// Multi-factor product: if all factors share one exponent,
		// (u·v)^c factors through a power chain over the product base.
		_, exp0 := expr.SplitFactor(factors[0])
		same := true
		bases := make([]expr.Node, len(factors))
		for i, f := range factors {
			b, e := expr.SplitFactor(f)
			bases[i] = b
			if e != exp0 {
				same = false
			}
		}
		if same && exp0 != 1 {
			base = expr.Simplify(expr.MulAll(bases))
			chain = scalar.NewChain(scalar.PowerP(exp0))
		} else {
			base = expr.MulAll(factors)
			chain = scalar.IdentityChain()
		}
	}
	if coef != 1 {
		chain = chain.Then(scalar.Linear(coef))
	}
	return base, chain, nil
}

// extractAtom peels scalar-function applications (ln, log, exp, b^u) off a
// canonical factor base.
func extractAtom(n expr.Node) (expr.Node, scalar.Chain, error) {
	switch t := n.(type) {
	case *expr.Var:
		return n, scalar.IdentityChain(), nil
	case *expr.Call:
		switch t.Name {
		case "ln":
			base, ch, err := extractChain(t.Args[0])
			if err != nil {
				return nil, scalar.Chain{}, err
			}
			return base, ch.Then(scalar.LogP(scalar.E)), nil
		case "log":
			if b, ok := t.Args[0].(*expr.Num); ok && b.Val > 0 && b.Val != 1 {
				base, ch, err := extractChain(t.Args[1])
				if err != nil {
					return nil, scalar.Chain{}, err
				}
				return base, ch.Then(scalar.LogP(b.Val)), nil
			}
			return n, scalar.IdentityChain(), nil
		case "exp":
			base, ch, err := extractChain(t.Args[0])
			if err != nil {
				return nil, scalar.Chain{}, err
			}
			return base, ch.Then(scalar.ExpP(scalar.E)), nil
		default:
			// abs, sgn and friends are not PS primitives; opaque base.
			return n, scalar.IdentityChain(), nil
		}
	case *expr.Bin:
		if t.Op == '^' {
			if b, ok := t.L.(*expr.Num); ok && b.Val > 0 {
				// b^u is the exponential primitive.
				base, ch, err := extractChain(t.R)
				if err != nil {
					return nil, scalar.Chain{}, err
				}
				return base, ch.Then(scalar.ExpP(b.Val)), nil
			}
		}
		return n, scalar.IdentityChain(), nil
	}
	return n, scalar.IdentityChain(), nil
}
