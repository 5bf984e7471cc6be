package exec

import (
	"fmt"
	"math"

	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// Batch execution parameters. Scans feed the aggregation kernels in
// fixed-size chunks of BatchSize output rows; workers claim work in
// morsels of MorselRows rows from a shared cursor. BatchSize is sized so
// a batch of group ids plus a couple of float64 vectors stay L1/L2
// resident; MorselRows is coarse enough that cursor contention is noise
// yet fine enough that a straggler worker never holds more than one
// morsel of residual work.
const (
	BatchSize  = 1024
	MorselRows = 64 * BatchSize
)

// Binder resolves column names for task construction. Bind returns a
// scalar accessor (the tuple-at-a-time contract); BindColumn exposes the
// underlying physical column and row-indirection vector (nil when row i
// of the set is row i of the column) so vectorized kernels can gather
// whole batches without per-row interface dispatch.
// BindColumn may fail where Bind succeeds (e.g. synthetic bindings in
// tests); kernels must fall back to the scalar path in that case.
type Binder interface {
	Bind(name string) (Accessor, error)
	BindColumn(name string) (*storage.Column, []int32, error)
}

// funcBinder adapts a plain bind function to the Binder interface for
// callers (tests, simple harnesses) that have no physical columns.
type funcBinder func(name string) (Accessor, error)

func (f funcBinder) Bind(name string) (Accessor, error) { return f(name) }

func (f funcBinder) BindColumn(string) (*storage.Column, []int32, error) {
	return nil, nil, fmt.Errorf("no physical column binding")
}

// BindFunc wraps a name→Accessor function as a Binder with no physical
// column access (BindColumn always fails, forcing scalar execution).
func BindFunc(fn func(name string) (Accessor, error)) Binder { return funcBinder(fn) }

// VecFiller fills out[0:hi-lo] with the value of a compiled expression
// for output rows lo..hi of the row set. hi-lo must not exceed BatchSize.
type VecFiller func(lo, hi int, out []float64)

// VecFillerFactory instantiates a VecFiller with private scratch buffers.
// Tasks are shared across workers, so each worker materializes its own
// filler; the closures it returns are not safe for concurrent use.
type VecFillerFactory func() VecFiller

// CompileVecFiller compiles a scalar expression over columns into a
// vectorized filler factory. It computes exactly the same values as
// CompileExpr — the same '^' strength reductions, the same scalar
// function semantics — restructured as batch loops over gathered column
// chunks. Returns an error for expressions or bindings the vector path
// cannot serve (the caller then stays on the scalar path).
func CompileVecFiller(n expr.Node, b Binder) (VecFillerFactory, error) {
	// Trial-compile once so binding and shape errors surface now rather
	// than per worker.
	if _, err := compileVecOp(n, b); err != nil {
		return nil, err
	}
	return func() VecFiller {
		op, err := compileVecOp(n, b)
		if err != nil {
			// Cannot happen: the trial compile above succeeded and
			// compilation is deterministic.
			panic(fmt.Sprintf("vec compile diverged: %v", err))
		}
		return VecFiller(op)
	}, nil
}

// vecOp writes the expression's value for rows lo..hi into dst[0:hi-lo].
type vecOp func(lo, hi int, dst []float64)

func compileVecOp(n expr.Node, b Binder) (vecOp, error) {
	switch t := n.(type) {
	case *expr.Num:
		v := t.Val
		return func(lo, hi int, dst []float64) {
			for i := range dst[:hi-lo] {
				dst[i] = v
			}
		}, nil
	case *expr.Var:
		col, rows, err := b.BindColumn(t.Name)
		if err != nil {
			return nil, err
		}
		return func(lo, hi int, dst []float64) {
			col.GatherFloats(rows, lo, hi, dst)
		}, nil
	case *expr.Neg:
		x, err := compileVecOp(t.X, b)
		if err != nil {
			return nil, err
		}
		return func(lo, hi int, dst []float64) {
			x(lo, hi, dst)
			for i := range dst[:hi-lo] {
				dst[i] = -dst[i]
			}
		}, nil
	case *expr.Bin:
		l, err := compileVecOp(t.L, b)
		if err != nil {
			return nil, err
		}
		if t.Op == '^' {
			// Mirror CompileExpr's strength reduction so the batch and
			// tuple paths are bit-identical on these hot exponents.
			if c, ok := t.R.(*expr.Num); ok {
				switch c.Val {
				case 2:
					return func(lo, hi int, dst []float64) {
						l(lo, hi, dst)
						for i := range dst[:hi-lo] {
							v := dst[i]
							dst[i] = v * v
						}
					}, nil
				case 3:
					return func(lo, hi int, dst []float64) {
						l(lo, hi, dst)
						for i := range dst[:hi-lo] {
							v := dst[i]
							dst[i] = v * v * v
						}
					}, nil
				case -1:
					return func(lo, hi int, dst []float64) {
						l(lo, hi, dst)
						for i := range dst[:hi-lo] {
							dst[i] = 1 / dst[i]
						}
					}, nil
				case 0.5:
					return func(lo, hi int, dst []float64) {
						l(lo, hi, dst)
						for i := range dst[:hi-lo] {
							dst[i] = math.Sqrt(dst[i])
						}
					}, nil
				}
			}
		}
		r, err := compileVecOp(t.R, b)
		if err != nil {
			return nil, err
		}
		tmp := make([]float64, BatchSize)
		switch t.Op {
		case '+':
			return func(lo, hi int, dst []float64) {
				l(lo, hi, dst)
				r(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] += tmp[i]
				}
			}, nil
		case '-':
			return func(lo, hi int, dst []float64) {
				l(lo, hi, dst)
				r(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] -= tmp[i]
				}
			}, nil
		case '*':
			return func(lo, hi int, dst []float64) {
				l(lo, hi, dst)
				r(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] *= tmp[i]
				}
			}, nil
		case '/':
			return func(lo, hi int, dst []float64) {
				l(lo, hi, dst)
				r(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] /= tmp[i]
				}
			}, nil
		case '^':
			return func(lo, hi int, dst []float64) {
				l(lo, hi, dst)
				r(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] = math.Pow(dst[i], tmp[i])
				}
			}, nil
		}
		return nil, fmt.Errorf("unknown operator %q", t.Op)
	case *expr.Call:
		if expr.AggregateFuncs[t.Name] {
			return nil, fmt.Errorf("aggregate %s() in scalar context", t.Name)
		}
		args := make([]vecOp, len(t.Args))
		for k, a := range t.Args {
			c, err := compileVecOp(a, b)
			if err != nil {
				return nil, err
			}
			args[k] = c
		}
		switch t.Name {
		case "sqrt":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					dst[i] = math.Sqrt(dst[i])
				}
			}, nil
		case "cbrt":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					dst[i] = math.Cbrt(dst[i])
				}
			}, nil
		case "ln":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					dst[i] = math.Log(dst[i])
				}
			}, nil
		case "log":
			base, x := args[0], args[1]
			tmp := make([]float64, BatchSize)
			return func(lo, hi int, dst []float64) {
				base(lo, hi, dst)
				x(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] = math.Log(tmp[i]) / math.Log(dst[i])
				}
			}, nil
		case "exp":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					dst[i] = math.Exp(dst[i])
				}
			}, nil
		case "abs":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					dst[i] = math.Abs(dst[i])
				}
			}, nil
		case "sgn":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					if dst[i] > 0 {
						dst[i] = 1
					} else if dst[i] < 0 {
						dst[i] = -1
					} else {
						dst[i] = 0
					}
				}
			}, nil
		case "pow":
			a, p := args[0], args[1]
			tmp := make([]float64, BatchSize)
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				p(lo, hi, tmp)
				for i := range dst[:hi-lo] {
					dst[i] = math.Pow(dst[i], tmp[i])
				}
			}, nil
		case "inv":
			a := args[0]
			return func(lo, hi int, dst []float64) {
				a(lo, hi, dst)
				for i := range dst[:hi-lo] {
					dst[i] = 1 / dst[i]
				}
			}, nil
		}
		return nil, fmt.Errorf("unknown scalar function %q", t.Name)
	}
	return nil, fmt.Errorf("cannot compile %T", n)
}
