package exec

import (
	"fmt"

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
// F(base(row)) exactly the way NewStateTask compiles its accumulation
// input — the same CompileExpr for the base, the same
// NormalizeReal().Compile() for the chain — so a window fold over these
// values is bit-compatible with the state task's scalar and vectorized
// kernels. count() states yield the constant 1.
func StateValuer(st canonical.State, b Binder) (Accessor, error) {
	if st.Op == canonical.OpCount {
		return func(int32) float64 { return 1 }, nil
	}
	in, err := CompileExpr(st.Base, b.Bind)
	if err != nil {
		return nil, fmt.Errorf("state %s: %w", st.Key(), err)
	}
	chain := st.F.NormalizeReal()
	if chain.IsIdentity() {
		return in, nil
	}
	fn, err := chain.Compile()
	if err != nil {
		return nil, fmt.Errorf("state %s: %w", st.Key(), err)
	}
	return func(i int32) float64 { return fn(in(i)) }, nil
}

// Placeholder names the synthetic variable replacing the i-th aggregate
// call extracted by ExtractAggCalls (the windowed output builder in
// internal/core evaluates select expressions over these).
func Placeholder(i int) string {
	return fmt.Sprintf("%s%d", placeholderPrefix, i)
}
