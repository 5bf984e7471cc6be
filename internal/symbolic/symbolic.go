// Package symbolic implements Section 5 of the SUDAF paper: symbolic
// representations of aggregation states and the precomputed l-bounded
// symbolic space saggs_l(X) with its sharing digraph (Figures 4 and 5).
//
// A symbolic state such as Σ p₂·x^p₁ stands for every concrete state of
// that shape (Σ 4x², Σ 9x², …). Sharing relationships between symbolic
// states are computed once, when a Space is built: a *strong* edge means
// every instance of the source shares every instance of the target; a
// *weak* edge carries parameter conditions (e.g. Σx^p shares Σp₂x^p₁ iff
// p = p₁). ShareVia matches concrete states to symbolic nodes by shape
// signature and lets the precomputed edges answer the sharing problem
// with two map lookups plus a numeric condition check — no expression
// transformations, which is the point of Section 5.1. The engine's cache
// does not call it (it applies the direct decision's own rewriting); the
// space serves Figures 4/5 and the lookup ablation.
package symbolic

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sudaf/internal/canonical"
	"sudaf/internal/scalar"
	"sudaf/internal/sharing"
)

// State is a node of the symbolic space.
type State struct {
	ID int
	Op canonical.AggOp
	// F is the symbolic chain, with parameters named <prefix><position>.
	F scalar.Chain
	// Sig is the shape signature (op + primitive kinds).
	Sig string
}

// Expr renders the state, e.g. "sum[p2*x^p1]".
func (s *State) Expr() string {
	return s.Op.String() + "(" + s.F.Render("x") + ")"
}

// Edge is a precomputed sharing relationship: source shares target.
type Edge struct {
	From, To int
	// R is the rewriting chain over the renamed parameters: source
	// parameters are a1,a2,…, target parameters b1,b2,… .
	R scalar.Chain
	// Conds are the parameter conditions of a weak edge (empty = strong).
	Conds []sharing.Cond
}

// Strong reports whether the edge holds unconditionally.
func (e *Edge) Strong() bool { return len(e.Conds) == 0 }

// Space is the precomputed l-bounded symbolic space.
type Space struct {
	L      int
	States []*State
	// edges maps (from, to) to the sharing edge "from shares to".
	edges map[[2]int]*Edge
	// bySig indexes states by shape signature.
	bySig map[string][]*State
	// classRep maps a state ID to its equivalence-class representative.
	classRep []int
	// classes lists the members of each equivalence class, keyed by
	// representative ID.
	classes map[int][]int
}

// SpaceSizeBound returns the paper's bound 2(4^{l+1}-1)/3 on |saggs_l|.
func SpaceSizeBound(l int) int {
	return 2 * (pow4(l+1) - 1) / 3
}

func pow4(n int) int {
	out := 1
	for i := 0; i < n; i++ {
		out *= 4
	}
	return out
}

// families are the parameterized primitive families of symbolic chains.
var families = []scalar.Kind{scalar.KLinear, scalar.KPower, scalar.KLog, scalar.KExp}

// genChains enumerates all symbolic chains of length exactly n with
// parameters named prefix1..prefixN (innermost first).
func genChains(n int, prefix string) []scalar.Chain {
	if n == 0 {
		return []scalar.Chain{scalar.IdentityChain()}
	}
	var out []scalar.Chain
	for _, tail := range genChains(n-1, prefix) {
		for _, k := range families {
			p := scalar.Prim{Kind: k, A: scalar.Param(fmt.Sprintf("%s%d", prefix, n))}
			out = append(out, tail.Then(p))
		}
	}
	return out
}

// Signature computes the shape signature of an op+chain: the aggregate op
// followed by the primitive kind sequence. Concrete states match symbolic
// nodes through equal signatures.
func Signature(op canonical.AggOp, f scalar.Chain) string {
	parts := make([]string, 0, len(f.Prims)+1)
	parts = append(parts, op.String())
	for _, p := range f.Prims {
		parts = append(parts, p.Kind.String())
	}
	return strings.Join(parts, ",")
}

// NewSpace builds saggs_l and precomputes every pairwise sharing
// relationship. l=2 (the paper's default) yields 42 states and runs in
// well under a second.
func NewSpace(l int) *Space {
	sp := &Space{
		L:     l,
		edges: map[[2]int]*Edge{},
		bySig: map[string][]*State{},
	}
	for n := 0; n <= l; n++ {
		for _, ch := range genChains(n, "p") {
			for _, op := range []canonical.AggOp{canonical.OpSum, canonical.OpProd} {
				st := &State{ID: len(sp.States), Op: op, F: ch, Sig: Signature(op, ch)}
				sp.States = append(sp.States, st)
				sp.bySig[st.Sig] = append(sp.bySig[st.Sig], st)
			}
		}
	}
	// Pairwise sharing decisions with disjoint parameter namespaces.
	for _, s1 := range sp.States {
		f1 := renameParams(s1.F, "a")
		for _, s2 := range sp.States {
			if s1.ID == s2.ID {
				continue
			}
			f2 := renameParams(s2.F, "b")
			d := sharing.Decide(s1.Op, f1, s2.Op, f2, true)
			if d.OK && validEdgeConds(d.Conds) {
				sp.edges[[2]int{s1.ID, s2.ID}] = &Edge{
					From: s1.ID, To: s2.ID, R: d.R, Conds: d.Conds,
				}
			}
		}
	}
	sp.computeClasses()
	return sp
}

// validEdgeConds enforces the ∀∃ semantics of symbolic sharing: "ss1
// shares ss2" means every instance of ss1 has SOME instance of ss2 it
// shares. A condition mentioning only source (a-prefixed) parameters
// would instead restrict which instances of ss1 qualify — e.g. Σx^p
// sharing Σx only when p=1 — so such edges are rejected. Conditions
// mentioning a target parameter remain solvable by choosing the target
// instance (the weak edges of Figure 4, e.g. p = p1).
func validEdgeConds(conds []sharing.Cond) bool {
	for _, c := range conds {
		params := map[string]bool{}
		scalar.CoefParams(c.C, params)
		hasTarget := false
		for p := range params {
			if strings.HasPrefix(p, "b") {
				hasTarget = true
			}
		}
		if !hasTarget {
			return false
		}
	}
	return true
}

// renameParams rewrites parameter names pK → prefixK.
func renameParams(c scalar.Chain, prefix string) scalar.Chain {
	prims := make([]scalar.Prim, len(c.Prims))
	for i, p := range c.Prims {
		prims[i] = scalar.Prim{Kind: p.Kind, A: renameCoef(p.A, prefix)}
	}
	return scalar.Chain{Prims: prims}
}

func renameCoef(c scalar.Coef, prefix string) scalar.Coef {
	switch t := c.(type) {
	case scalar.Param:
		return scalar.Param(prefix + strings.TrimPrefix(string(t), "p"))
	case scalar.OpCoef:
		out := scalar.OpCoef{Op: t.Op, L: renameCoef(t.L, prefix)}
		if t.R != nil {
			out.R = renameCoef(t.R, prefix)
		}
		return out
	default:
		return c
	}
}

// computeClasses partitions the space into equivalence classes (mutual
// sharing, strong or weak) and picks representatives: the member with the
// shortest chain, then fewest parameters, then lexicographic signature —
// matching the shaded nodes of Figure 4.
func (sp *Space) computeClasses() {
	n := len(sp.States)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for k := range sp.edges {
		if _, back := sp.edges[[2]int{k[1], k[0]}]; back {
			union(k[0], k[1])
		}
	}
	members := map[int][]int{}
	for i := 0; i < n; i++ {
		members[find(i)] = append(members[find(i)], i)
	}
	sp.classRep = make([]int, n)
	sp.classes = map[int][]int{}
	for _, ms := range members {
		rep := ms[0]
		for _, m := range ms[1:] {
			if better(sp.States[m], sp.States[rep]) {
				rep = m
			}
		}
		sort.Ints(ms)
		sp.classes[rep] = ms
		for _, m := range ms {
			sp.classRep[m] = rep
		}
	}
}

// better orders candidate representatives.
func better(a, b *State) bool {
	la, lb := a.F.Len(), b.F.Len()
	if la != lb {
		return la < lb
	}
	pa, pb := len(a.F.Params()), len(b.F.Params())
	if pa != pb {
		return pa < pb
	}
	return a.Sig < b.Sig
}

// Rep returns the representative state of id's equivalence class.
func (sp *Space) Rep(id int) *State { return sp.States[sp.classRep[id]] }

// Class returns the member IDs of the class represented by rep.
func (sp *Space) Class(rep int) []int { return sp.classes[sp.classRep[rep]] }

// NumClasses returns the number of equivalence classes.
func (sp *Space) NumClasses() int { return len(sp.classes) }

// EdgeBetween returns the precomputed edge "from shares to", if any.
func (sp *Space) EdgeBetween(from, to int) (*Edge, bool) {
	e, ok := sp.edges[[2]int{from, to}]
	return e, ok
}

// NumEdges returns the number of precomputed sharing relationships.
func (sp *Space) NumEdges() int { return len(sp.edges) }

// Match finds the symbolic node for a concrete op+chain and binds its
// parameters (prefixed with the given namespace) to the concrete
// coefficient values. The chain must consist of concrete coefficients.
func (sp *Space) Match(op canonical.AggOp, f scalar.Chain, prefix string) (*State, map[string]float64, bool) {
	sig := Signature(op, f)
	nodes := sp.bySig[sig]
	if len(nodes) == 0 {
		return nil, nil, false
	}
	st := nodes[0]
	bind := map[string]float64{}
	for i, p := range f.Prims {
		v, err := scalar.CEval(p.A, nil)
		if err != nil {
			return nil, nil, false // symbolic concrete mismatch
		}
		bind[fmt.Sprintf("%s%d", prefix, i+1)] = v
	}
	return st, bind, true
}

// ShareVia answers the runtime sharing problem through the precomputed
// digraph: does the concrete state (op1, f1) share (op2, f2)? On success
// it returns the rewriting as a ready-to-apply scalar function.
func (sp *Space) ShareVia(op1 canonical.AggOp, f1 scalar.Chain, op2 canonical.AggOp, f2 scalar.Chain) (func(float64) float64, bool) {
	n1, bind1, ok := sp.Match(op1, f1, "a")
	if !ok {
		return nil, false
	}
	n2, bind2, ok := sp.Match(op2, f2, "b")
	if !ok {
		return nil, false
	}
	e, ok := sp.EdgeBetween(n1.ID, n2.ID)
	if !ok {
		return nil, false
	}
	bind := make(map[string]float64, len(bind1)+len(bind2))
	for k, v := range bind1 {
		bind[k] = v
	}
	for k, v := range bind2 {
		bind[k] = v
	}
	for _, c := range e.Conds {
		v, err := scalar.CEval(c.C, bind)
		if err != nil || math.IsNaN(v) || math.Abs(v-c.Want) > 1e-9 {
			return nil, false
		}
	}
	r := e.R
	return func(x float64) float64 {
		v, err := r.EvalWith(x, bind)
		if err != nil {
			return math.NaN()
		}
		return v
	}, true
}

// Dump renders the digraph grouped by equivalence class, for the space
// inspection tool and EXPERIMENTS.md.
func (sp *Space) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "saggs_%d: %d states, %d sharing edges, %d equivalence classes\n",
		sp.L, len(sp.States), len(sp.edges), len(sp.classes))
	reps := make([]int, 0, len(sp.classes))
	for rep := range sp.classes {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	for _, rep := range reps {
		fmt.Fprintf(&sb, "class [%s]:\n", sp.States[rep].Expr())
		for _, m := range sp.classes[rep] {
			marker := "  "
			if m == rep {
				marker = " *"
			}
			fmt.Fprintf(&sb, "%s %s\n", marker, sp.States[m].Expr())
		}
	}
	return sb.String()
}
