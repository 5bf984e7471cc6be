package exec

import (
	"context"

	"sudaf/internal/canonical"
	"sudaf/internal/storage"
)

// NewTableBinder returns a Binder over every row of one table with
// identity indirection: accessor row i reads physical row i. Window
// executors compile per-row value accessors and per-frame recompute
// tasks against it, so absolute row indexes line up with column storage
// and with the morsel boundaries of a cold scan.
func NewTableBinder(t *storage.Table) Binder {
	return &RowSet{n: t.NumRows(), tables: []*storage.Table{t}}
}

// StateValuer compiles a bound state's per-tuple translated value
// F(base(row)) from the same compileStateInput as NewStateTask, so a
// window fold over these values is bit-compatible with the state task's
// scalar and vectorized kernels. count() states yield the constant 1.
func StateValuer(st canonical.State, b Binder) (Accessor, error) {
	if st.Op == canonical.OpCount {
		return func(int32) float64 { return 1 }, nil
	}
	in, fn, err := compileStateInput(st, b)
	if err != nil || fn == nil {
		return in, err
	}
	return func(i int32) float64 { return fn(in(i)) }, nil
}

// BuildWindowOutput materializes the output table of a sequence of
// windowed emissions, one row per emission: the select list projected
// with non-placeholder names read from tbl at each emission's emit row.
func BuildWindowOutput(ctx context.Context, out OutputSpec, tbl *storage.Table, emitRows []int, vals [][]float64) (*Result, error) {
	gathered := map[string]*storage.Column{} // project binds once per reference
	res, faults, err := project(ctx, out, vals, len(emitRows), func(name string) *storage.Column {
		c, ok := gathered[name]
		if !ok {
			if src := tbl.Col(name); src != nil {
				c = takeRows(src, emitRows)
			}
			gathered[name] = c
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	return &Result{Table: res, Groups: len(emitRows), NumericFaults: faults}, nil
}
