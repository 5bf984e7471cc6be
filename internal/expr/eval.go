package expr

import (
	"fmt"
	"math"
)

// Env supplies variable values during evaluation.
type Env interface {
	// Value returns the value bound to name, and whether it is bound.
	Value(name string) (float64, bool)
}

// MapEnv is an Env backed by a map.
type MapEnv map[string]float64

// Value implements Env.
func (m MapEnv) Value(name string) (float64, bool) {
	v, ok := m[name]
	return v, ok
}

// Eval evaluates a scalar expression (no aggregate calls) in env by
// walking the tree: the interpreted reference that Compile's closures
// must agree with bit for bit. Both take every function kernel from Funcs
// and every constant-exponent '^' from ConstPow.
// Domain errors (log of a non-positive number, division by zero) surface
// as NaN or ±Inf, matching SQL engines' floating-point behaviour; callers
// that need errors should check math.IsNaN/IsInf on the result.
func Eval(n Node, env Env) (float64, error) {
	switch t := n.(type) {
	case *Num:
		return t.Val, nil
	case *Var:
		v, ok := env.Value(t.Name)
		if !ok {
			return 0, fmt.Errorf("unbound variable %q", t.Name)
		}
		return v, nil
	case *Neg:
		v, err := Eval(t.X, env)
		return -v, err
	case *Bin:
		l, err := Eval(t.L, env)
		if err != nil {
			return 0, err
		}
		if f := t.ConstPow(); f != nil {
			return f.Unary(l), nil
		}
		r, err := Eval(t.R, env)
		if err != nil {
			return 0, err
		}
		switch t.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			return l / r, nil
		case '^':
			return math.Pow(l, r), nil
		}
		return 0, fmt.Errorf("unknown operator %q", t.Op)
	case *Call:
		f, err := t.Scalar()
		if err != nil {
			return 0, err
		}
		a, err := Eval(t.Args[0], env)
		if err != nil {
			return 0, err
		}
		if f.Arity == 1 {
			return f.Unary(a), nil
		}
		b, err := Eval(t.Args[1], env)
		if err != nil {
			return 0, err
		}
		return f.Binary(a, b), nil
	}
	return 0, fmt.Errorf("cannot evaluate %T", n)
}

// Compile compiles a scalar expression into a closure over an environment
// of type E, computing exactly what Eval computes. bind resolves a
// variable name to its reader; everything else — operators, Funcs
// kernels, the ConstPow reduction — is fixed here, so the row accessors
// (E = int32), the state-vector terminating functions (E = []float64) and
// the select-list projection are all instantiations of this one function.
// Compilation happens once per query; evaluation is closure calls only —
// no maps, no boxing.
func Compile[E any](n Node, bind func(name string) (func(E) float64, error)) (func(E) float64, error) {
	switch t := n.(type) {
	case *Num:
		v := t.Val
		return func(E) float64 { return v }, nil
	case *Var:
		return bind(t.Name)
	case *Neg:
		x, err := Compile(t.X, bind)
		if err != nil {
			return nil, err
		}
		return func(e E) float64 { return -x(e) }, nil
	case *Bin:
		l, err := Compile(t.L, bind)
		if err != nil {
			return nil, err
		}
		if f := t.ConstPow(); f != nil {
			return compose(f, l), nil
		}
		r, err := Compile(t.R, bind)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case '+':
			return func(e E) float64 { return l(e) + r(e) }, nil
		case '-':
			return func(e E) float64 { return l(e) - r(e) }, nil
		case '*':
			return func(e E) float64 { return l(e) * r(e) }, nil
		case '/':
			return func(e E) float64 { return l(e) / r(e) }, nil
		case '^':
			return func(e E) float64 { return math.Pow(l(e), r(e)) }, nil
		}
		return nil, fmt.Errorf("unknown operator %q", t.Op)
	case *Call:
		f, err := t.Scalar()
		if err != nil {
			return nil, err
		}
		a, err := Compile(t.Args[0], bind)
		if err != nil {
			return nil, err
		}
		if f.Arity == 1 {
			return compose(f, a), nil
		}
		b, err := Compile(t.Args[1], bind)
		if err != nil {
			return nil, err
		}
		g := f.Binary
		return func(e E) float64 { return g(a(e), b(e)) }, nil
	}
	return nil, fmt.Errorf("cannot compile %T", n)
}
