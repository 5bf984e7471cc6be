package canonical

import "sudaf/internal/expr"

// builtinDefs is the one definition of the SQL built-in aggregates: the
// names each answers to and its declarative body over its formal
// parameters. Every mode runs a built-in through its canonical form, so
// Baseline, Rewrite and Share compute it with the same state loops and
// the same compiled T.
var builtinDefs = []struct {
	names  []string
	params []string
	body   string
}{
	{[]string{"sum"}, []string{"x"}, "sum(x)"},
	{[]string{"count"}, nil, "count()"},
	{[]string{"avg", "mean"}, []string{"x"}, "avg(x)"},
	{[]string{"min"}, []string{"x"}, "min(x)"},
	{[]string{"max"}, []string{"x"}, "max(x)"},
	// Population variance and standard deviation. Σx²/n − (Σx/n)² can
	// round below zero on a constant group; greatest(·, 0) clamps it to
	// 0 as PostgreSQL does, while a NaN still propagates.
	{[]string{"var", "variance", "var_pop"}, []string{"x"}, "greatest(sum(x^2)/n - (sum(x)/n)^2, 0)"},
	{[]string{"std", "stddev", "stddev_pop"}, []string{"x"}, "sqrt(greatest(sum(x^2)/n - (sum(x)/n)^2, 0))"},
	{[]string{"covar_pop", "covar"}, []string{"x", "y"}, "sum(x*y)/n - sum(x)*sum(y)/n^2"},
}

// builtins maps every built-in name and alias to its form, decomposed
// once at start-up and never written after.
var builtins = func() map[string]*Form {
	m := map[string]*Form{}
	for _, d := range builtinDefs {
		for _, name := range d.names {
			f, err := Decompose(name, d.params, expr.MustParse(d.body))
			if err != nil {
				panic(err)
			}
			m[name] = f
		}
	}
	return m
}()

// Builtin returns the canonical form of a SQL built-in aggregate, given
// its lower-case name or alias. The form is shared: callers must not
// modify it.
func Builtin(name string) (*Form, bool) {
	f, ok := builtins[name]
	return f, ok
}
