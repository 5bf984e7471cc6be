// Package exec implements the physical execution engine of the SUDAF
// reproduction: columnar scans with predicate selection, left-deep hash
// joins, and hash group-by aggregation with three aggregate execution
// paths — built-in fast loops (sum/count/avg/min/max/stddev/variance/
// covariance), compiled SUDAF aggregation-state loops, and deliberately
// interpreted "hardcoded UDAF" accumulators that model the per-tuple
// boxing overhead of PL/pgSQL and Spark's UserDefinedAggregateFunction.
//
// The engine runs serial ("PostgreSQL mode") or with partitioned parallel
// partial aggregation and merge ("Spark mode"), exercising exactly the
// IUME update/merge contract the paper's canonical forms guarantee.
package exec

import (
	"fmt"
	"math"

	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// Accessor reads a float64 value for output row i of a row set.
type Accessor func(i int32) float64

// colAccessor builds an accessor for a physical column through a row
// indirection vector; nil rows read the column directly (identity).
func colAccessor(col *storage.Column, rows []int32) Accessor {
	if rows == nil {
		switch col.Kind {
		case storage.KindFloat:
			f := col.F
			return func(i int32) float64 { return f[i] }
		case storage.KindInt:
			v := col.I
			return func(i int32) float64 { return float64(v[i]) }
		default:
			c := col.Codes
			return func(i int32) float64 { return float64(c[i]) }
		}
	}
	switch col.Kind {
	case storage.KindFloat:
		f := col.F
		return func(i int32) float64 { return f[rows[i]] }
	case storage.KindInt:
		v := col.I
		return func(i int32) float64 { return float64(v[rows[i]]) }
	default:
		c := col.Codes
		return func(i int32) float64 { return float64(c[rows[i]]) }
	}
}

// intAccessor reads key values as int64, through rows or — nil —
// directly.
func intAccessor(col *storage.Column, rows []int32) func(i int32) int64 {
	if rows == nil {
		switch col.Kind {
		case storage.KindInt:
			v := col.I
			return func(i int32) int64 { return v[i] }
		case storage.KindString:
			c := col.Codes
			return func(i int32) int64 { return int64(c[i]) }
		default:
			f := col.F
			return func(i int32) int64 { return int64(f[i]) }
		}
	}
	switch col.Kind {
	case storage.KindInt:
		v := col.I
		return func(i int32) int64 { return v[rows[i]] }
	case storage.KindString:
		c := col.Codes
		return func(i int32) int64 { return int64(c[rows[i]]) }
	default:
		f := col.F
		return func(i int32) int64 { return int64(f[rows[i]]) }
	}
}

// CompileExpr compiles a scalar expression over columns into an accessor.
// bind resolves a column name to its accessor. Compilation happens once
// per query; evaluation is closure calls only — no maps, no boxing.
func CompileExpr(n expr.Node, bind func(name string) (Accessor, error)) (Accessor, error) {
	switch t := n.(type) {
	case *expr.Num:
		v := t.Val
		return func(int32) float64 { return v }, nil
	case *expr.Var:
		return bind(t.Name)
	case *expr.Neg:
		x, err := CompileExpr(t.X, bind)
		if err != nil {
			return nil, err
		}
		return func(i int32) float64 { return -x(i) }, nil
	case *expr.Bin:
		l, err := CompileExpr(t.L, bind)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(t.R, bind)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case '+':
			return func(i int32) float64 { return l(i) + r(i) }, nil
		case '-':
			return func(i int32) float64 { return l(i) - r(i) }, nil
		case '*':
			return func(i int32) float64 { return l(i) * r(i) }, nil
		case '/':
			return func(i int32) float64 { return l(i) / r(i) }, nil
		case '^':
			// Integer powers compile to multiplications.
			if c, ok := t.R.(*expr.Num); ok {
				switch c.Val {
				case 2:
					return func(i int32) float64 { v := l(i); return v * v }, nil
				case 3:
					return func(i int32) float64 { v := l(i); return v * v * v }, nil
				case -1:
					return func(i int32) float64 { return 1 / l(i) }, nil
				case 0.5:
					return func(i int32) float64 { return math.Sqrt(l(i)) }, nil
				}
			}
			return func(i int32) float64 { return math.Pow(l(i), r(i)) }, nil
		}
		return nil, fmt.Errorf("unknown operator %q", t.Op)
	case *expr.Call:
		if expr.AggregateFuncs[t.Name] {
			return nil, fmt.Errorf("aggregate %s() in scalar context", t.Name)
		}
		args := make([]Accessor, len(t.Args))
		for k, a := range t.Args {
			c, err := CompileExpr(a, bind)
			if err != nil {
				return nil, err
			}
			args[k] = c
		}
		switch t.Name {
		case "sqrt":
			a := args[0]
			return func(i int32) float64 { return math.Sqrt(a(i)) }, nil
		case "cbrt":
			a := args[0]
			return func(i int32) float64 { return math.Cbrt(a(i)) }, nil
		case "ln":
			a := args[0]
			return func(i int32) float64 { return math.Log(a(i)) }, nil
		case "log":
			b, x := args[0], args[1]
			return func(i int32) float64 { return math.Log(x(i)) / math.Log(b(i)) }, nil
		case "exp":
			a := args[0]
			return func(i int32) float64 { return math.Exp(a(i)) }, nil
		case "abs":
			a := args[0]
			return func(i int32) float64 { return math.Abs(a(i)) }, nil
		case "sgn":
			a := args[0]
			return func(i int32) float64 {
				v := a(i)
				if v > 0 {
					return 1
				} else if v < 0 {
					return -1
				}
				return 0
			}, nil
		case "pow":
			a, b := args[0], args[1]
			return func(i int32) float64 { return math.Pow(a(i), b(i)) }, nil
		case "inv":
			a := args[0]
			return func(i int32) float64 { return 1 / a(i) }, nil
		}
		return nil, fmt.Errorf("unknown scalar function %q", t.Name)
	}
	return nil, fmt.Errorf("cannot compile %T", n)
}
