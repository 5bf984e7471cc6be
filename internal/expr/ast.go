// Package expr implements the mathematical expression language in which
// SUDAF users write user-defined aggregate functions (UDAFs).
//
// An expression is built from numbers, variables (column references or
// formal parameters such as x and y), the binary operators + - * / ^,
// scalar functions (the Funcs table: sqrt, ln, log, exp, abs, sgn, pow,
// greatest, ...) and aggregate functions (sum, prod, count, avg, min,
// max). The package provides a lexer, a recursive-descent parser, an
// algebraic simplifier that brings expressions into a canonical
// sum-of-products form, and the one definition of the scalar language's
// semantics: the function table, the constant-exponent reduction, the
// interpreter Eval and the closure compiler Compile that every executor
// path instantiates.
//
// The simplifier is what lets the canonicalizer (internal/canonical)
// recognize that sum(x*x) and sum(x^2) denote the same aggregation state.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Node is an expression tree node. Nodes are immutable after construction;
// transformations return new trees.
type Node interface {
	// String renders the node as parseable source text.
	String() string
}

// Num is a numeric literal.
type Num struct{ Val float64 }

// Var is a reference to a variable: a UDAF formal parameter, a column
// name, or a state placeholder such as s1 introduced by canonicalization.
type Var struct{ Name string }

// Bin is a binary operation. Op is one of '+', '-', '*', '/', '^'.
type Bin struct {
	Op   byte
	L, R Node
}

// Neg is unary negation.
type Neg struct{ X Node }

// Call is a function application, scalar or aggregate.
type Call struct {
	Name string
	Args []Node
}

func (n *Num) String() string {
	if n.Val < 0 {
		return "(" + FormatFloat(n.Val) + ")"
	}
	return FormatFloat(n.Val)
}

func (v *Var) String() string { return v.Name }

func (b *Bin) String() string {
	return "(" + b.L.String() + string(b.Op) + b.R.String() + ")"
}

func (n *Neg) String() string { return "(-" + n.X.String() + ")" }

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ",") + ")"
}

// FormatFloat renders a float compactly and deterministically, so that
// canonical strings of equal expressions compare equal.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 17, 64)
}

// AggregateFuncs are the aggregate function names recognized inside UDAF
// expressions. count takes zero arguments; the rest take one.
var AggregateFuncs = map[string]bool{
	"sum":   true,
	"prod":  true,
	"count": true,
	"avg":   true,
	"min":   true,
	"max":   true,
}

// IsAggregate reports whether the node is an aggregate function call.
func IsAggregate(n Node) bool {
	c, ok := n.(*Call)
	return ok && AggregateFuncs[c.Name]
}

// ContainsAggregate reports whether any descendant of n is an aggregate call.
func ContainsAggregate(n Node) bool {
	found := false
	Walk(n, func(m Node) bool {
		if IsAggregate(m) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Walk visits n and its descendants in preorder. If fn returns false the
// walk does not descend into that node's children.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch t := n.(type) {
	case *Bin:
		Walk(t.L, fn)
		Walk(t.R, fn)
	case *Neg:
		Walk(t.X, fn)
	case *Call:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	}
}

// Rewrite applies fn bottom-up, replacing each node by fn's result.
func Rewrite(n Node, fn func(Node) Node) Node {
	switch t := n.(type) {
	case *Bin:
		return fn(&Bin{Op: t.Op, L: Rewrite(t.L, fn), R: Rewrite(t.R, fn)})
	case *Neg:
		return fn(&Neg{X: Rewrite(t.X, fn)})
	case *Call:
		args := make([]Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = Rewrite(a, fn)
		}
		return fn(&Call{Name: t.Name, Args: args})
	default:
		return fn(n)
	}
}

// Vars returns the sorted set of variable names referenced by n.
func Vars(n Node) []string {
	set := map[string]bool{}
	Walk(n, func(m Node) bool {
		if v, ok := m.(*Var); ok {
			set[v.Name] = true
		}
		return true
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Equal reports structural equality of two expression trees.
func Equal(a, b Node) bool {
	switch ta := a.(type) {
	case *Num:
		tb, ok := b.(*Num)
		return ok && ta.Val == tb.Val
	case *Var:
		tb, ok := b.(*Var)
		return ok && ta.Name == tb.Name
	case *Neg:
		tb, ok := b.(*Neg)
		return ok && Equal(ta.X, tb.X)
	case *Bin:
		tb, ok := b.(*Bin)
		return ok && ta.Op == tb.Op && Equal(ta.L, tb.L) && Equal(ta.R, tb.R)
	case *Call:
		tb, ok := b.(*Call)
		if !ok || ta.Name != tb.Name || len(ta.Args) != len(tb.Args) {
			return false
		}
		for i := range ta.Args {
			if !Equal(ta.Args[i], tb.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Substitute returns n with every Var whose name appears in bind replaced
// by the bound expression.
func Substitute(n Node, bind map[string]Node) Node {
	return Rewrite(n, func(m Node) Node {
		if v, ok := m.(*Var); ok {
			if r, ok := bind[v.Name]; ok {
				return r
			}
		}
		return m
	})
}

// MustParse parses src and panics on error. Intended for tests and for
// built-in definitions that are known to be valid.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("expr.MustParse(%q): %v", src, err))
	}
	return n
}
