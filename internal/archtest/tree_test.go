// Package archtest checks the engine's "written once" design facts — one
// frame encoder, one lookup, one predicate compiler, … — as facts about
// the Go syntax tree of the whole repository, so that a rename, a comment
// or a reformatted call cannot slip past them the way it slips past a
// text search. It is test-only and uses the standard library alone.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// A tree is every .go file under a root, parsed with its comments:
// benchmark/ included, testdata/ and .git skipped.
type tree struct {
	fset  *token.FileSet
	files []*file // in path order
}

type file struct {
	path string // slash-separated, relative to the tree's root
	ast  *ast.File
}

// A violation is one place where a fact does not hold. at is "path:line",
// or the path alone when what is missing has no line.
type violation struct {
	at, msg string
}

func (v violation) String() string { return v.at + ": " + v.msg }

func load(root string) (*tree, error) {
	t := &tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || d.Name() == ".git") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(t.fset, p, src, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		t.files = append(t.files, &file{path: filepath.ToSlash(rel), ast: af})
		return nil
	})
	return t, err
}

func (f *file) test() bool { return strings.HasSuffix(f.path, "_test.go") }

// under reports whether f lies in dir or below it; every file lies under "".
func (f *file) under(dir string) bool { return dir == "" || strings.HasPrefix(f.path, dir+"/") }

// code lists the non-test files in dir or below it.
func (t *tree) code(dir string) []*file {
	var out []*file
	for _, f := range t.files {
		if !f.test() && f.under(dir) {
			out = append(out, f)
		}
	}
	return out
}

// pkg lists the non-test files of the package in dir, not of those below.
func (t *tree) pkg(dir string) []*file {
	var out []*file
	for _, f := range t.files {
		if !f.test() && path.Dir(f.path) == dir {
			out = append(out, f)
		}
	}
	return out
}

func (t *tree) at(f *file, pos token.Pos) string {
	return fmt.Sprintf("%s:%d", f.path, t.fset.Position(pos).Line)
}

func (t *tree) violation(f *file, pos token.Pos, format string, args ...any) violation {
	return violation{t.at(f, pos), fmt.Sprintf(format, args...)}
}

// funcName renders a declaration as "f", "(T).m" or "(*T).m".
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + types.ExprString(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// fn finds the declaration of a function or method, named as funcName
// renders it, among the non-test files of the package in dir.
func (t *tree) fn(dir, name string) (*file, *ast.FuncDecl) {
	for _, f := range t.pkg(dir) {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && funcName(fd) == name {
				return f, fd
			}
		}
	}
	return nil, nil
}

// body is fn that turns a missing function into the fact's violation.
func (t *tree) body(dir, name string) (*file, *ast.BlockStmt, []violation) {
	f, fd := t.fn(dir, name)
	if fd == nil {
		return nil, nil, []violation{{dir, name + " not found"}}
	}
	return f, fd.Body, nil
}

// calls lists the calls inside n, nested closures included.
func calls(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// methodCalls lists the calls x.m(…) inside n, m one of names.
func methodCalls(n ast.Node, names ...string) []*ast.CallExpr {
	var out []*ast.CallExpr
	for _, c := range calls(n) {
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
			out = append(out, c)
		}
	}
	return out
}

// callee is the name a call calls: "f" for f(…) and "m" for x.m(…).
func callee(c *ast.CallExpr) string {
	switch fn := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.IndexExpr: // an instantiated generic function
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// pkgRefs lists the selectors inside n that name a member of the package
// f imports from importPath (json.Marshal for "encoding/json"), whatever
// name the import binds.
func pkgRefs(f *file, n ast.Node, importPath string) []*ast.SelectorExpr {
	var names []string
	for _, is := range f.ast.Imports {
		if p, _ := strconv.Unquote(is.Path.Value); p == importPath {
			if is.Name != nil {
				names = append(names, is.Name.Name)
			} else {
				names = append(names, path.Base(p))
			}
		}
	}
	var out []*ast.SelectorExpr
	if len(names) == 0 {
		return out
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				for _, name := range names {
					if x.Name == name {
						out = append(out, sel)
					}
				}
			}
		}
		return true
	})
	return out
}

// use is one reference to a name, and the function it sits in.
type use struct {
	pos token.Pos
	in  string // funcName of the enclosing declaration, "" at package level
}

// uses lists the references to name in f: identifiers, selectors
// included, but not the name's own declaration.
func uses(f *file, name string) []use {
	var out []use
	for _, d := range f.ast.Decls {
		in, node := "", ast.Node(d)
		if fd, ok := d.(*ast.FuncDecl); ok {
			in = funcName(fd)
			if fd.Body == nil {
				continue
			}
			node = fd.Body
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				out = append(out, use{id.Pos(), in})
			}
			return true
		})
	}
	return out
}

// words matches any of names as a whole word, as grep -w does.
func words(names ...string) *regexp.Regexp {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = regexp.QuoteMeta(n)
	}
	return regexp.MustCompile(`\b(` + strings.Join(quoted, "|") + `)\b`)
}

// mentions lists where re matches in f's identifiers, string literals
// (import paths among them) and comments: everywhere a name can be
// written down.
func mentions(f *file, re *regexp.Regexp) []token.Pos {
	var out []token.Pos
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if re.MatchString(n.Name) {
				out = append(out, n.Pos())
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && re.MatchString(n.Value) {
				out = append(out, n.Pos())
			}
		}
		return true
	})
	for _, cg := range f.ast.Comments {
		for _, c := range cg.List {
			if re.MatchString(c.Text) {
				out = append(out, c.Pos())
			}
		}
	}
	return out
}

// within keeps the positions that lie inside n.
func within(n ast.Node, ps []token.Pos) []token.Pos {
	var out []token.Pos
	for _, p := range ps {
		if n.Pos() <= p && p < n.End() {
			out = append(out, p)
		}
	}
	return out
}

// spells lists f's string literals that contain quoted, a fragment of Go
// source such as `"cbrt"` or `"T[`, in their source text or in their
// value written as an interpreted string: a raw `cbrt` spells "cbrt" too.
func spells(f *file, quoted string) []token.Pos {
	var out []token.Pos
	ast.Inspect(f.ast, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		v, _ := strconv.Unquote(lit.Value)
		if strings.Contains(lit.Value, quoted) || strings.Contains(`"`+v+`"`, quoted) {
			out = append(out, lit.Pos())
		}
		return true
	})
	return out
}

// signature renders a func type without parameter names: "func(int32) bool".
func signature(ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, fd := range fl.List {
			for range max(1, len(fd.Names)) {
				out = append(out, types.ExprString(fd.Type))
			}
		}
		return out
	}
	s := "func(" + strings.Join(list(ft.Params), ", ") + ")"
	switch res := list(ft.Results); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// funcTypes lists f's func type expressions and function literals, not
// the signatures of declared functions.
func funcTypes(f *file) []*ast.FuncType {
	decl := map[*ast.FuncType]bool{}
	var out []*ast.FuncType
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			decl[n.Type] = true
		case *ast.FuncType:
			if !decl[n] {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}
