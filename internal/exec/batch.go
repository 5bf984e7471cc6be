package exec

import (
	"fmt"

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
// CompileExpr, restructured as batch loops over gathered column chunks:
// the four arithmetic operators are spelled as loops, every function and
// every '^' applies the kernel expr.Compile would. Returns an error for
// expressions or bindings the vector path cannot serve (the caller then
// stays on the scalar path).
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
		if f := t.ConstPow(); f != nil {
			return vecUnary(l, f), nil
		}
		r, err := compileVecOp(t.R, b)
		if err != nil {
			return nil, err
		}
		if t.Op == '^' {
			return vecBinary(l, r, expr.Funcs["pow"]), nil
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
		}
		return nil, fmt.Errorf("unknown operator %q", t.Op)
	case *expr.Call:
		f, err := t.Scalar()
		if err != nil {
			return nil, err
		}
		x, err := compileVecOp(t.Args[0], b)
		if err != nil {
			return nil, err
		}
		if f.Arity == 1 {
			return vecUnary(x, f), nil
		}
		y, err := compileVecOp(t.Args[1], b)
		if err != nil {
			return nil, err
		}
		return vecBinary(x, y, f), nil
	}
	return nil, fmt.Errorf("cannot compile %T", n)
}

// vecUnary and vecBinary apply a kernel of the scalar language — an
// expr.Funcs entry or an expr.ConstPow reduction — to a batch. They are
// the only way a function or a '^' enters a vector op, so the batch path
// runs the very arithmetic expr.Compile's closures run.
func vecUnary(x vecOp, f *expr.Func) vecOp {
	return func(lo, hi int, dst []float64) {
		x(lo, hi, dst)
		f.UnaryVec(dst[:hi-lo])
	}
}

func vecBinary(x, y vecOp, f *expr.Func) vecOp {
	tmp := make([]float64, BatchSize)
	return func(lo, hi int, dst []float64) {
		x(lo, hi, dst)
		y(lo, hi, tmp)
		for i, v := range dst[:hi-lo] {
			dst[i] = f.Binary(v, tmp[i])
		}
	}
}
