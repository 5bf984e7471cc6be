package exec

import (
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/storage"
)

// TestNewStateTaskBindErrors pins the error NewStateTask returns for a
// state that names a column or a function the row set does not have, for
// every kernel class that binds an input, and for a chain that cannot
// compile. A column kernel's base names only columns, so the unknown
// functions sit in generic bases, beside an unknown column in each
// position the binder reaches.
func TestNewStateTaskBindErrors(t *testing.T) {
	tbl := storage.NewTable("t",
		storage.NewColumn("x", storage.KindFloat),
		storage.NewColumn("y", storage.KindInt))
	tbl.Col("x").AppendFloat(1)
	tbl.Col("y").AppendInt(2)
	rs := &RowSet{n: 1, tables: []*storage.Table{tbl}, vecs: map[string][]int32{}}
	square := scalar.NewChain(scalar.PowerP(2))
	symbolic := scalar.NewChain(scalar.Prim{Kind: scalar.KPower, A: scalar.Param("p")})
	parse := expr.MustParse
	// The parser rejects an unknown function, so those bases are built.
	call := func(name string, arg expr.Node) expr.Node { return &expr.Call{Name: name, Args: []expr.Node{arg}} }
	cases := []struct {
		op    canonical.AggOp
		f     scalar.Chain
		base  expr.Node
		class canonical.KernelClass
		want  string
	}{
		{canonical.OpSum, scalar.IdentityChain(), parse("nosuch"), canonical.KernelSumCol, `state sum[x](nosuch): unknown column "nosuch"`},
		{canonical.OpSum, square, parse("nosuch"), canonical.KernelSumPow, `state sum[x^2](nosuch): unknown column "nosuch"`},
		{canonical.OpProd, scalar.IdentityChain(), parse("nosuch"), canonical.KernelProdCol, `state prod[x](nosuch): unknown column "nosuch"`},
		{canonical.OpMin, scalar.IdentityChain(), parse("nosuch"), canonical.KernelMinCol, `state min[x](nosuch): unknown column "nosuch"`},
		{canonical.OpMax, scalar.IdentityChain(), parse("nosuch"), canonical.KernelMaxCol, `state max[x](nosuch): unknown column "nosuch"`},
		{canonical.OpSum, scalar.IdentityChain(), parse("nosuch * y"), canonical.KernelSumMul, `state sum[x]((nosuch*y)): unknown column "nosuch"`},
		{canonical.OpSum, scalar.IdentityChain(), parse("x * nosuch"), canonical.KernelSumMul, `state sum[x]((x*nosuch)): unknown column "nosuch"`},
		{canonical.OpSum, scalar.IdentityChain(), parse("nosuch + 1"), canonical.KernelGeneric, `state sum[x]((nosuch+1)): unknown column "nosuch"`},
		{canonical.OpSum, square, parse("x - nosuch"), canonical.KernelGeneric, `state sum[x^2]((x-nosuch)): unknown column "nosuch"`},
		{canonical.OpMin, scalar.IdentityChain(), call("nofn", parse("x")), canonical.KernelGeneric, `state min[x](nofn(x)): unknown scalar function "nofn"`},
		{canonical.OpSum, scalar.IdentityChain(), call("nofn", parse("nosuch")), canonical.KernelGeneric, `state sum[x](nofn(nosuch)): unknown scalar function "nofn"`},
		{canonical.OpSum, square, parse("x * sum(y)"), canonical.KernelGeneric, `state sum[x^2]((x*sum(y))): aggregate sum() in scalar context`},
		// A chain that cannot compile, over a base that binds and one that
		// does not: the base's error comes first.
		{canonical.OpSum, symbolic, parse("x"), canonical.KernelGeneric, `state sum[x^p](x): cannot compile symbolic coefficient p`},
		{canonical.OpSum, symbolic, parse("nosuch"), canonical.KernelGeneric, `state sum[x^p](nosuch): unknown column "nosuch"`},
	}
	for _, c := range cases {
		st := canonical.State{Op: c.op, F: c.f, Base: c.base}
		if got := st.SelectKernel().Class; got != c.class {
			t.Fatalf("%s: kernel class %v, want %v", st.Key(), got, c.class)
		}
		task, err := NewStateTask(st, rs)
		if err == nil {
			t.Fatalf("%s: bound as %v, want error %q", st.Key(), task.plan.Class, c.want)
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", st.Key(), err, c.want)
		}
	}
}
