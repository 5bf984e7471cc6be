package archtest

import (
	"go/ast"
	"regexp"
	"slices"
)

// A fact is one "written once" property of the code, checked on a tree:
// check returns the places where it does not hold. Every fact has a seed,
// testdata/<name>/, that plants one violation it must find.
type fact struct {
	name  string
	check func(t *tree) []violation
}

var facts = []fact{
	// DESIGN.md §8 "Scalar language": every scalar function is defined in
	// internal/expr/funcs.go. A name spelled in a second evaluator is a
	// second definition that can drift; expr/simplify.go names functions
	// to do algebra on them, not to evaluate them.
	{"cbrt-defined-in-funcs", func(t *tree) []violation {
		return spelledOnlyIn(t, `"cbrt"`, "internal/expr/funcs.go", "internal/expr/simplify.go")
	}},
	// … and '^' reduces through expr.ConstPow / expr.Funcs["pow"], never
	// a math.Pow of one of the three compilers' own.
	{"no-math-pow-in-compilers", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.files {
			switch f.path {
			case "internal/exec/compile.go", "internal/exec/batch.go", "internal/canonical/compile.go":
				for _, sel := range pkgRefs(f, f.ast, "math") {
					if sel.Sel.Name == "Pow" {
						vs = append(vs, t.violation(f, sel.Pos(), "math.Pow in a compiler: take '^' from expr.ConstPow / expr.Funcs[\"pow\"]"))
					}
				}
			}
		}
		return vs
	}},

	// One measurement contract: the reference switches left on exec.Engine
	// are for tests, never the product.
	{"reference-switches-test-only", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.code("") {
			for _, c := range methodCalls(f.ast, "SetVectorKernels", "SetEncodedFolds") {
				vs = append(vs, t.violation(f, c.Pos(), "%s is a test-only reference switch", callee(c)))
			}
		}
		return vs
	}},
	// cache.LookupAll is the one lookup critical section: the per-state and
	// per-entry accessors it replaced have no caller outside the package.
	{"lookups-through-lookup-all", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.files {
			if f.under("internal/cache") {
				continue
			}
			for _, c := range methodCalls(f.ast, "LookupKind", "Entry") {
				vs = append(vs, t.violation(f, c.Pos(), "cache lookups go through Cache.LookupAll (or Probe), found .%s", callee(c)))
			}
		}
		return vs
	}},

	// DESIGN.md §4 "Memoized terminating functions": a hardcoded T runs only
	// through the closure canonical.Form.CompileT builds, and forms carrying
	// one are built only in internal/sketch.
	{"hard-t-in-sketch-and-compile-t", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.code("") {
			if f.under("internal/sketch") || f.path == "internal/canonical/compile.go" {
				continue
			}
			for _, c := range methodCalls(f.ast, "HardT") {
				vs = append(vs, t.violation(f, c.Pos(), "HardT is invoked only by canonical.Form.CompileT"))
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if kv, ok := n.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "HardT" {
						vs = append(vs, t.violation(f, kv.Pos(), "HardT is set only in internal/sketch"))
					}
				}
				return true
			})
		}
		return vs
	}},
	// The memoized final columns are internal/cache's private state: core
	// reaches them through LookupAll, StoreFinal and ProbeFinal alone.
	{"finals-private-to-cache", func(t *tree) []violation {
		var outside []*file
		for _, f := range t.code("") {
			if !f.under("internal/cache") {
				outside = append(outside, f)
			}
		}
		return mentionedIn(t, outside, words("finals"), "memoized finals are internal/cache's private state")
	}},

	// DESIGN.md §13: shard workers are stateless scanners; the session
	// cache is the only place a state is kept.
	{"shard-keeps-no-cache", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.code("internal/shard") {
			for _, sel := range pkgRefs(f, f.ast, "sudaf/internal/cache") {
				if sel.Sel.Name == "New" {
					vs = append(vs, t.violation(f, sel.Pos(), "internal/shard creates no state cache"))
				}
			}
			for _, c := range methodCalls(f.ast, "LookupAll", "StoreAll", "Probe") {
				vs = append(vs, t.violation(f, c.Pos(), "internal/shard reads no state cache, found .%s", callee(c)))
			}
		}
		return vs
	}},

	// DESIGN.md §4: exec.DataKey is the one description of a data part, and
	// its String() the only producer of key text.
	{"data-key-text-in-one-file", func(t *tree) []violation {
		home, _ := t.fn("internal/exec", "(*DataKey).String")
		if home == nil {
			return []violation{{"internal/exec", "(*DataKey).String not found"}}
		}
		return append(spelledOnlyIn(t, `"T[`, home.path), spelledOnlyIn(t, `"|W[`, home.path)...)
	}},

	// DESIGN.md §8 "Filter evaluation": a WHERE clause compiles to block
	// kernels only. No per-row matcher is defined in internal/exec …
	{"no-row-matcher-in-exec", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.code("internal/exec") {
			for _, ft := range funcTypes(f) {
				if signature(ft) == "func(int32) bool" {
					vs = append(vs, t.violation(f, ft.Pos(), "a per-row func(int32) bool matcher; filters compile to block kernels"))
				}
			}
		}
		return vs
	}},
	// … and the per-row closure compiler it replaced is named nowhere there.
	{"one-predicate-compiler", func(t *tree) []violation {
		return mentionedIn(t, t.code("internal/exec"), words("compilePred", "compileCmp", "cmpConst", "cmpFloat"),
			"filters compile through compileFilter alone, found the per-row compiler")
	}},

	// DESIGN.md §11 "EXPLAIN as a read-only rendering": a shared or
	// sign-split hit computes r(s) when read, with the decision's own r.
	// The cache holds no symbolic space …
	{"cache-without-symbolic-space", func(t *tree) []violation {
		return mentionedIn(t, t.code("internal/cache"), words("internal/symbolic"),
			"internal/cache applies the direct decision's r alone")
	}},
	// … no store of derived states …
	{"cache-stores-no-derived-state", func(t *tree) []violation {
		return mentionedIn(t, t.code("internal/cache"), words("storeDerived", "sameBase", "ShareVia"),
			"internal/cache keeps only states computed from base data")
	}},
	// … and LookupAll writes nothing into the entry it reads.
	{"lookup-all-writes-nothing", func(t *tree) []violation {
		f, body, vs := t.body("internal/cache", "(*Cache).LookupAll")
		if body == nil {
			return vs
		}
		for _, c := range calls(body) {
			if name := callee(c); name == "AddState" || name == "evict" {
				vs = append(vs, t.violation(f, c.Pos(), "Cache.LookupAll writes the entry: %s", name))
			}
		}
		return vs
	}},

	// DESIGN.md §2: every mode runs a SQL built-in through its canonical
	// form, read from one table, so its names are spelled in one file.
	{"builtins-spelled-once", func(t *tree) []violation {
		var first *file
		var vs []violation
		for _, f := range t.code("") {
			ps := spells(f, `"stddev_pop"`)
			switch {
			case len(ps) == 0:
			case first == nil:
				first = f
			default:
				vs = append(vs, t.violation(f, ps[0], "built-in names are spelled in one non-test file, \"stddev_pop\" is already in %s", first.path))
			}
		}
		if first == nil {
			vs = append(vs, violation{".", `no non-test file spells the built-in "stddev_pop"`})
		}
		return vs
	}},

	// DESIGN.md §7 "Cache degradation": a state column is checksummed when
	// a read is about to serve it, through resolve's per-call verifier.
	// There is no whole-entry sweep or eager health map …
	{"no-whole-entry-verify", func(t *tree) []violation {
		return mentionedIn(t, t.code(""), words("sweepCorrupt", "healthyStates"),
			"cache reads verify only the states they serve, found a whole-entry check")
	}},
	// … and no read loops over an entry's states verifying them.
	{"reads-verify-what-they-serve", func(t *tree) []violation {
		verifies := regexp.MustCompile(`(?i)verif|ChecksumVals`)
		var vs []violation
		for _, name := range []string{"(*Cache).LookupAll", "(*Cache).Probe", "(*Cache).ProbeFinal"} {
			f, body, missing := t.body("internal/cache", name)
			if body == nil {
				vs = append(vs, missing...)
				continue
			}
			if len(within(body, mentions(f, verifies))) == 0 {
				continue
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok && rangesOverStates(r.X) {
					vs = append(vs, t.violation(f, r.Pos(), "%s loops over the entry's states verifying them", name))
				}
				return true
			})
		}
		return vs
	}},

	// DESIGN.md §4 "One frame codec": every result frame is written by
	// appendFrame, byte-identical to encoding/json without calling it.
	{"frame-writes-skip-encoding-json", func(t *tree) []violation {
		var vs []violation
		for _, name := range []string{"WriteFrame", "writeFrame", "appendFrame"} {
			f, body, missing := t.body("internal/server", name)
			if body == nil {
				vs = append(vs, missing...)
				continue
			}
			for _, sel := range pkgRefs(f, body, "encoding/json") {
				vs = append(vs, t.violation(f, sel.Pos(), "%s calls encoding/json: json.%s", name, sel.Sel.Name))
			}
		}
		return vs
	}},
	{"append-frame-called-by-write-frame", func(t *tree) []violation {
		var vs []violation
		fromWrite := false
		for _, f := range t.pkg("internal/server") {
			for _, u := range uses(f, "appendFrame") {
				if u.in == "writeFrame" && !fromWrite {
					fromWrite = true
					continue
				}
				vs = append(vs, t.violation(f, u.pos, "appendFrame is called from writeFrame alone, and once"))
			}
		}
		if !fromWrite {
			vs = append(vs, violation{"internal/server", "writeFrame does not encode through appendFrame"})
		}
		return vs
	}},
	{"one-frame-encoder", func(t *tree) []violation {
		var vs []violation
		for _, f := range t.pkg("internal/server") {
			for _, p := range mentions(f, regexp.MustCompile(`MarshalJSON`)) {
				vs = append(vs, t.violation(f, p, "appendFrame is the one frame encoder, found MarshalJSON"))
			}
			for _, sel := range pkgRefs(f, f.ast, "encoding/json") {
				if sel.Sel.Name == "Marshal" || sel.Sel.Name == "MarshalIndent" {
					vs = append(vs, t.violation(f, sel.Pos(), "appendFrame is the one frame encoder, found json.%s", sel.Sel.Name))
				}
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				var ft *ast.FuncType
				var recv *ast.FieldList
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv == nil && n.Name.Name == "appendFrame" {
						return true
					}
					ft, recv = n.Type, n.Recv
				case *ast.FuncLit:
					ft = n.Type
				default:
					return true
				}
				if (takesFrame(recv) || takesFrame(ft.Params)) && returnsBytes(ft.Results) {
					vs = append(vs, t.violation(f, n.Pos(), "appendFrame is the one frame encoder, found a second Frame → []byte"))
				}
				return true
			})
		}
		return vs
	}},
	// The one encoding/json encoder left, writeJSON's, is for request-level
	// bodies and is never handed a frame.
	{"write-json-takes-no-frame", func(t *tree) []violation {
		code := t.pkg("internal/server")
		makers := frameMakers(code)
		var vs []violation
		for _, f := range code {
			for _, c := range calls(f.ast) {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); !ok || id.Name != "writeJSON" {
					continue
				}
				for _, arg := range c.Args {
					if framed(arg, makers, 0) {
						vs = append(vs, t.violation(f, arg.Pos(), "writeJSON is handed a frame; frames go through WriteFrame"))
					}
				}
			}
		}
		return vs
	}},
	{"one-json-encoder", func(t *tree) []violation {
		var vs []violation
		first := ""
		for _, f := range t.pkg("internal/server") {
			for _, sel := range pkgRefs(f, f.ast, "encoding/json") {
				switch {
				case sel.Sel.Name != "NewEncoder":
				case first == "":
					first = t.at(f, sel.Pos())
				default:
					vs = append(vs, t.violation(f, sel.Pos(), "internal/server has one encoding/json encoder, writeJSON's at %s", first))
				}
			}
		}
		return vs
	}},
}

// spelledOnlyIn reports every non-test file but home and the exempt ones
// whose string literals spell quoted, and home when it does not.
func spelledOnlyIn(t *tree, quoted, home string, exempt ...string) []violation {
	var vs []violation
	found := false
	for _, f := range t.code("") {
		if slices.Contains(exempt, f.path) {
			continue
		}
		for _, p := range spells(f, quoted) {
			if f.path == home {
				found = true
				continue
			}
			vs = append(vs, t.violation(f, p, "%s is spelled in %s alone", quoted, home))
		}
	}
	if !found {
		vs = append(vs, violation{home, "does not spell " + quoted})
	}
	return vs
}

func mentionedIn(t *tree, files []*file, re *regexp.Regexp, msg string) []violation {
	var vs []violation
	for _, f := range files {
		for _, p := range mentions(f, re) {
			vs = append(vs, t.violation(f, p, "%s", msg))
		}
	}
	return vs
}

// rangesOverStates reports whether a range clause reads x.states, a field
// or a method.
func rangesOverStates(x ast.Expr) bool {
	if c, ok := x.(*ast.CallExpr); ok {
		x = c.Fun
	}
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "states"
}

// isFrame reports whether a type expression is Frame or *Frame.
func isFrame(x ast.Expr) bool {
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == "Frame"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Frame"
	}
	return false
}

func takesFrame(fl *ast.FieldList) bool {
	if fl == nil {
		return false
	}
	for _, fd := range fl.List {
		if isFrame(fd.Type) {
			return true
		}
	}
	return false
}

func returnsBytes(fl *ast.FieldList) bool {
	if fl == nil {
		return false
	}
	for _, fd := range fl.List {
		if a, ok := fd.Type.(*ast.ArrayType); ok && a.Len == nil {
			if id, ok := a.Elt.(*ast.Ident); ok && id.Name == "byte" {
				return true
			}
		}
	}
	return false
}

// frameMakers maps each function and method declared in files that
// returns a Frame or *Frame to the positions of those results.
func frameMakers(files []*file) map[string][]int {
	out := map[string][]int{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Type.Results == nil {
				continue
			}
			i := 0
			for _, r := range fd.Type.Results.List {
				for range max(1, len(r.Names)) {
					if isFrame(r.Type) {
						out[fd.Name.Name] = append(out[fd.Name.Name], i)
					}
					i++
				}
			}
		}
	}
	return out
}

// framed reports whether x holds a frame anywhere inside it: a Frame
// literal, a call of a frame maker, or a variable bound to either (or
// declared a Frame), followed through the parser's scopes.
func framed(x ast.Expr, makers map[string][]int, depth int) bool {
	if depth > 8 {
		return false
	}
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			found = found || (n.Type != nil && isFrame(n.Type))
		case *ast.CallExpr:
			found = found || len(makers[callee(n)]) > 0
		case *ast.Ident:
			found = found || boundToFrame(n, makers, depth)
		}
		return !found
	})
	return found
}

func boundToFrame(id *ast.Ident, makers map[string][]int, depth int) bool {
	if id.Obj == nil || id.Obj.Kind != ast.Var {
		return false
	}
	switch d := id.Obj.Decl.(type) {
	case *ast.Field:
		return isFrame(d.Type)
	case *ast.ValueSpec:
		if d.Type != nil && isFrame(d.Type) {
			return true
		}
		for i, name := range d.Names {
			if name.Name == id.Name && i < len(d.Values) {
				return framed(d.Values[i], makers, depth+1)
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range d.Lhs {
			if l, ok := lhs.(*ast.Ident); !ok || l.Name != id.Name {
				continue
			}
			if len(d.Rhs) == len(d.Lhs) {
				return framed(d.Rhs[i], makers, depth+1)
			}
			if c, ok := d.Rhs[0].(*ast.CallExpr); ok && len(d.Rhs) == 1 {
				return slices.Contains(makers[callee(c)], i)
			}
		}
	}
	return false
}
