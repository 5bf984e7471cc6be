package expr

import (
	"fmt"
	"math"
)

// Func is one scalar function of the expression language: its arity and
// the float64 kernel every evaluator — Eval, Compile and the executor's
// vector filler — applies. A unary function has Unary and UnaryVec, the
// same arithmetic over one value and over a batch in place; a binary one
// has Binary.
type Func struct {
	Arity    int
	Unary    func(x float64) float64
	UnaryVec func(dst []float64)
	Binary   func(a, b float64) float64
}

// Funcs is the scalar function table, the single definition of each
// function's name, arity and semantics. The parser checks calls against
// it; evaluators look kernels up in it and never spell a function out.
var Funcs = map[string]*Func{
	"sqrt": fnSqrt,
	"cbrt": fnCbrt,
	"ln":   fnLn,
	"exp":  fnExp,
	"abs":  fnAbs,
	"sgn":  fnSgn,
	"inv":  fnRecip, // inv(x) = 1/x, convenience
	"log":  {Arity: 2, Binary: logBase},
	"pow":  {Arity: 2, Binary: math.Pow}, // also the '^' ConstPow does not reduce
	// greatest(a, b) is the larger argument, NaN if either is NaN
	// (math.Max, which also orders -0 below +0). Simplify keeps it opaque,
	// so greatest(v, 0) clamps v without redistributing it.
	"greatest": {Arity: 2, Binary: math.Max},
}

// viaCall is the entry of a unary function that costs far more than a
// call: its batch form applies f through the function value.
func viaCall(f func(float64) float64) *Func {
	return &Func{Arity: 1, Unary: f, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = f(v)
		}
	}}
}

// The unary kernels. Each is one function; compose names it so the call
// is direct, and the batch form of those cheaper than a call names it
// too, so the body inlines into the loop.
var (
	fnCbrt = viaCall(math.Cbrt)
	fnLn   = viaCall(math.Log)
	fnExp  = viaCall(math.Exp)
	fnSqrt = &Func{Arity: 1, Unary: math.Sqrt, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = math.Sqrt(v)
		}
	}}
	fnAbs = &Func{Arity: 1, Unary: math.Abs, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = math.Abs(v)
		}
	}}
	fnSgn = &Func{Arity: 1, Unary: sgn, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = sgn(v)
		}
	}}
	fnRecip = &Func{Arity: 1, Unary: recip, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = recip(v)
		}
	}}
	fnSquare = &Func{Arity: 1, Unary: square, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = square(v)
		}
	}}
	fnCube = &Func{Arity: 1, Unary: cube, UnaryVec: func(dst []float64) {
		for i, v := range dst {
			dst[i] = cube(v)
		}
	}}
)

func sgn(x float64) float64 {
	if x > 0 {
		return 1
	} else if x < 0 {
		return -1
	}
	return 0
}

func recip(x float64) float64 { return 1 / x }

func square(x float64) float64 { return x * x }

func cube(x float64) float64 { return x * x * x }

// logBase is log(base, x) = ln(x)/ln(base).
func logBase(base, x float64) float64 { return math.Log(x) / math.Log(base) }

// compose returns u ∘ l, the closure Compile builds for a unary kernel:
// u.Unary applied by name, which saves the second indirect call per row.
func compose[E any](u *Func, l func(E) float64) func(E) float64 {
	switch u {
	case fnCbrt:
		return func(e E) float64 { return math.Cbrt(l(e)) }
	case fnLn:
		return func(e E) float64 { return math.Log(l(e)) }
	case fnExp:
		return func(e E) float64 { return math.Exp(l(e)) }
	case fnSqrt:
		return func(e E) float64 { return math.Sqrt(l(e)) }
	case fnAbs:
		return func(e E) float64 { return math.Abs(l(e)) }
	case fnSgn:
		return func(e E) float64 { return sgn(l(e)) }
	case fnRecip:
		return func(e E) float64 { return recip(l(e)) }
	case fnSquare:
		return func(e E) float64 { return square(l(e)) }
	case fnCube:
		return func(e E) float64 { return cube(l(e)) }
	}
	f := u.Unary
	return func(e E) float64 { return f(l(e)) }
}

// ConstPow is the constant-exponent strength reduction: the kernel that
// x^c compiles to when c is one of the hot exponents, nil otherwise (the
// caller then uses math.Pow). The reduced kernels do not round like
// math.Pow (x*x*x vs Pow(x, 3); Sqrt(-0) = -0 vs Pow(-0, 0.5) = +0), which
// is why every evaluator of '^' and scalar.Chain.Compile take the
// reduction from here: paths agree bit for bit because they apply the
// same kernel.
func ConstPow(c float64) *Func {
	switch c {
	case 2:
		return fnSquare
	case 3:
		return fnCube
	case -1:
		return fnRecip
	case 0.5:
		return fnSqrt
	}
	return nil
}

// ConstPow returns the reduced kernel applying to b.L when b is l^c for a
// constant c that ConstPow reduces, nil otherwise.
func (b *Bin) ConstPow() *Func {
	if c, ok := b.R.(*Num); ok && b.Op == '^' {
		return ConstPow(c.Val)
	}
	return nil
}

// Scalar resolves a call in scalar context to its table entry.
func (c *Call) Scalar() (*Func, error) {
	f, ok := Funcs[c.Name]
	switch {
	case AggregateFuncs[c.Name]:
		return nil, fmt.Errorf("aggregate %s() in scalar context", c.Name)
	case !ok:
		return nil, fmt.Errorf("unknown scalar function %q", c.Name)
	case len(c.Args) != f.Arity:
		return nil, fmt.Errorf("function %s takes %d argument(s), got %d", c.Name, f.Arity, len(c.Args))
	}
	return f, nil
}
