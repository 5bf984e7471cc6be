package scalar

import (
	"fmt"
	"math"
	"strings"

	"sudaf/internal/expr"
)

// Kind enumerates the primitive scalar function families of Table 2.
type Kind int

const (
	// KConst is f(x) = a.
	KConst Kind = iota
	// KLinear is f(x) = a·x (the identity when a = 1).
	KLinear
	// KPower is f(x) = x^a.
	KPower
	// KLog is f(x) = log_a(x).
	KLog
	// KExp is f(x) = a^x.
	KExp
)

func (k Kind) String() string {
	switch k {
	case KConst:
		return "const"
	case KLinear:
		return "linear"
	case KPower:
		return "power"
	case KLog:
		return "log"
	case KExp:
		return "exp"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// E is the base of natural logarithms, used as the canonical log base.
const E = math.E

// Prim is a primitive scalar function from PS.
type Prim struct {
	Kind Kind
	A    Coef
}

// Convenience constructors.

// Const returns the constant function x ↦ a.
func Const(a float64) Prim { return Prim{KConst, Num(a)} }

// Linear returns x ↦ a·x.
func Linear(a float64) Prim { return Prim{KLinear, Num(a)} }

// PowerP returns x ↦ x^a.
func PowerP(a float64) Prim { return Prim{KPower, Num(a)} }

// LogP returns x ↦ log_a(x).
func LogP(a float64) Prim { return Prim{KLog, Num(a)} }

// ExpP returns x ↦ a^x.
func ExpP(a float64) Prim { return Prim{KExp, Num(a)} }

// Identity returns the identity function (linear with a = 1).
func Identity() Prim { return Linear(1) }

func (p Prim) String() string {
	switch p.Kind {
	case KConst:
		return p.A.String()
	case KLinear:
		if isOneCoef(p.A) {
			return "x"
		}
		return p.A.String() + "*x"
	case KPower:
		return "x^" + p.A.String()
	case KLog:
		if v, ok := coefNum(p.A); ok && approxEq(v, E) {
			return "ln(x)"
		}
		return "log_" + p.A.String() + "(x)"
	case KExp:
		return p.A.String() + "^x"
	}
	return "?"
}

// IsIdentity reports whether p is the identity function.
func (p Prim) IsIdentity() bool {
	return (p.Kind == KLinear || p.Kind == KPower) && isOneCoef(p.A)
}

// Eval evaluates a primitive with concrete coefficient at x.
// Symbolic coefficients require EvalWith.
func (p Prim) Eval(x float64) float64 {
	v, err := p.evalWith(x, nil)
	if err != nil {
		return math.NaN()
	}
	return v
}

func (p Prim) evalWith(x float64, bind map[string]float64) (float64, error) {
	a, err := CEval(p.A, bind)
	if err != nil {
		return 0, err
	}
	switch p.Kind {
	case KConst:
		return a, nil
	case KLinear:
		return a * x, nil
	case KPower:
		return math.Pow(x, a), nil
	case KLog:
		return math.Log(x) / math.Log(a), nil
	case KExp:
		return math.Pow(a, x), nil
	}
	return 0, fmt.Errorf("bad prim kind %v", p.Kind)
}

// Chain is a composition of primitive scalar functions, an element of PS∘.
// Prims[0] is applied first (innermost): Chain{f, g, h} denotes h∘g∘f.
// The zero value is the identity function.
type Chain struct {
	Prims []Prim
}

// NewChain builds a chain applying prims in order (first prim innermost).
func NewChain(prims ...Prim) Chain { return Chain{Prims: prims} }

// IdentityChain returns the identity chain.
func IdentityChain() Chain { return Chain{} }

// Len returns the number of primitives, |f| in the paper's notation.
func (c Chain) Len() int { return len(c.Prims) }

// IsIdentity reports whether the chain is the identity function
// syntactically (after dropping identity primitives).
func (c Chain) IsIdentity() bool {
	for _, p := range c.Prims {
		if !p.IsIdentity() {
			return false
		}
	}
	return true
}

// Compose returns g∘c: first apply c, then g.
func (c Chain) Compose(g Chain) Chain {
	out := Chain{Prims: make([]Prim, 0, len(c.Prims)+len(g.Prims))}
	out.Prims = append(out.Prims, c.Prims...)
	out.Prims = append(out.Prims, g.Prims...)
	return out
}

// Then appends a single primitive applied after the chain.
func (c Chain) Then(p Prim) Chain {
	out := Chain{Prims: make([]Prim, 0, len(c.Prims)+1)}
	out.Prims = append(out.Prims, c.Prims...)
	out.Prims = append(out.Prims, p)
	return out
}

// Eval evaluates the chain at x (concrete coefficients only).
func (c Chain) Eval(x float64) float64 {
	v, err := c.EvalWith(x, nil)
	if err != nil {
		return math.NaN()
	}
	return v
}

// EvalWith evaluates the chain at x with parameter bindings.
func (c Chain) EvalWith(x float64, bind map[string]float64) (float64, error) {
	v := x
	for _, p := range c.Prims {
		var err error
		v, err = p.evalWith(v, bind)
		if err != nil {
			return 0, err
		}
	}
	return v, nil
}

// String renders the chain as nested applications, innermost first.
func (c Chain) String() string {
	if len(c.Prims) == 0 {
		return "x"
	}
	parts := make([]string, len(c.Prims))
	for i, p := range c.Prims {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ∘→ ")
}

// Render substitutes inner expressions textually, producing a readable
// formula such as "4*(x^2)" for [power 2, linear 4].
func (c Chain) Render(inner string) string {
	s := inner
	for _, p := range c.Prims {
		switch p.Kind {
		case KConst:
			s = p.A.String()
		case KLinear:
			if isOneCoef(p.A) {
				break
			}
			s = p.A.String() + "*(" + s + ")"
		case KPower:
			s = "(" + s + ")^" + p.A.String()
		case KLog:
			if v, ok := coefNum(p.A); ok && approxEq(v, E) {
				s = "ln(" + s + ")"
			} else {
				s = "log(" + p.A.String() + "," + s + ")"
			}
		case KExp:
			s = p.A.String() + "^(" + s + ")"
		}
	}
	return s
}

// Equal reports equality of two chains after positive-domain
// normalization, with approximate coefficient comparison for concrete
// coefficients and structural comparison for symbolic ones.
func (c Chain) Equal(d Chain) bool {
	a := c.Normalize()
	b := d.Normalize()
	if len(a.Prims) != len(b.Prims) {
		return false
	}
	for i := range a.Prims {
		pa, pb := a.Prims[i], b.Prims[i]
		if pa.Kind != pb.Kind {
			return false
		}
		va, aok := coefNum(pa.A)
		vb, bok := coefNum(pb.A)
		if aok && bok {
			if !approxEq(va, vb) {
				return false
			}
		} else if pa.A.String() != pb.A.String() {
			return false
		}
	}
	return true
}

// Compile builds a fast closure evaluating the chain. Chains with
// symbolic coefficients cannot be compiled (bind them first).
func (c Chain) Compile() (func(float64) float64, error) {
	fns := make([]func(float64) float64, 0, len(c.Prims))
	for _, p := range c.Prims {
		a, ok := coefNum(p.A)
		if !ok {
			return nil, fmt.Errorf("cannot compile symbolic coefficient %v", p.A)
		}
		switch p.Kind {
		case KConst:
			v := a
			fns = append(fns, func(float64) float64 { return v })
		case KLinear:
			v := a
			fns = append(fns, func(x float64) float64 { return v * x })
		case KPower:
			if a == 1 {
				continue
			}
			if f := expr.ConstPow(a); f != nil {
				fns = append(fns, f.Unary)
			} else {
				v := a
				fns = append(fns, func(x float64) float64 { return math.Pow(x, v) })
			}
		case KLog:
			if approxEq(a, E) {
				fns = append(fns, math.Log)
			} else {
				inv := 1 / math.Log(a)
				fns = append(fns, func(x float64) float64 { return math.Log(x) * inv })
			}
		case KExp:
			if approxEq(a, E) {
				fns = append(fns, math.Exp)
			} else {
				ln := math.Log(a)
				fns = append(fns, func(x float64) float64 { return math.Exp(x * ln) })
			}
		default:
			return nil, fmt.Errorf("cannot compile prim kind %v", p.Kind)
		}
	}
	switch len(fns) {
	case 0:
		return func(x float64) float64 { return x }, nil
	case 1:
		return fns[0], nil
	case 2:
		f0, f1 := fns[0], fns[1]
		return func(x float64) float64 { return f1(f0(x)) }, nil
	default:
		return func(x float64) float64 {
			for _, f := range fns {
				x = f(x)
			}
			return x
		}, nil
	}
}

// Params returns the set of symbolic parameter names used in the chain.
func (c Chain) Params() map[string]bool {
	out := map[string]bool{}
	for _, p := range c.Prims {
		CoefParams(p.A, out)
	}
	return out
}
