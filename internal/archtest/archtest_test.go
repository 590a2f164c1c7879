// Package archtest holds loopscope's design rules as one test. Each rule
// is an entry of the rules table: a name (its subtest), the reason it
// exists, the directories it looks at, and checks over their parsed
// non-test files. TestRules runs every rule on the repository, where it
// must find nothing, and on its own tree under testdata/<name>, laid out
// like the repository, where it must find exactly the findings listed in
// that tree's want.txt: a rule that cannot fire proves nothing.
//
// Rules match identifiers, not text. A selector matches when its left
// side is the name the file's import list binds to the banned import
// path, whatever that name is, in a call or as a method value. The
// exports rule resolves names with go/types: it type-checks the tree's
// packages, the standard library's from GOROOT source, and holds every
// exported name under internal/ to a user in another package.
//
// TestDocNamesResolve holds the documents to the code the same way: the
// Go names README.md, DESIGN.md and EXPERIMENTS.md quote must be
// declared, and testdata/docnames is the document where it must fire.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type rule struct {
	name   string
	reason string
	dirs   []string // scope, relative to the tree root, subdirectories included
	// anchors are files, or declarations anywhere in the scope
	// ("Type.Name" for a method), without which the rule checks nothing.
	anchors []string
	// flag reports an expression that breaks the rule; d is its
	// top-level declaration. check returns what no one expression shows.
	flag  func(f *file, d ast.Decl, e ast.Expr) bool
	check func(t *tree, files []*file) []string
}

func TestRules(t *testing.T) {
	repo := load(t, moduleRoot(t))
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if got := repo.run(r); len(got) > 0 {
				t.Errorf("%s\n%s", strings.Join(got, "\n"), r.reason)
			}
			dir := filepath.Join("testdata", r.name)
			want, err := os.ReadFile(filepath.Join(dir, "want.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(load(t, dir).run(r), "\n") + "\n"; got != string(want) {
				t.Errorf("%s: got\n%swant\n%s", dir, got, want)
			}
		})
	}
}

// moduleRoot finds the repository from the package directory, where go
// test runs, by walking up to go.mod.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		if filepath.Dir(dir) == dir {
			t.Fatal("no go.mod above the package directory")
		}
		dir = filepath.Dir(dir)
	}
}

// tree is a source tree laid out like the repository: the repository
// itself, or one rule's tree under testdata.
type tree struct {
	root  string
	fset  *token.FileSet
	files []*file // every non-test Go file outside testdata and dot directories
}

type file struct {
	path    string // slash-separated, relative to the tree root
	syntax  *ast.File
	imports map[string]string // local name -> import path
}

func load(t *testing.T, root string) *tree {
	t.Helper()
	tr := &tree{root: root, fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, s := range f.Imports {
			p, _ := strconv.Unquote(s.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if s.Name != nil {
				name = s.Name.Name
			}
			imports[name] = p
		}
		tr.files = append(tr.files, &file{tr.rel(path), f, imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (t *tree) rel(path string) string {
	return filepath.ToSlash(strings.TrimPrefix(path, t.root+string(filepath.Separator)))
}

// run returns r's findings on the tree, sorted: a scope directory that
// holds no Go file, a missing anchor, each flagged expression as
// "path:line: expression", and those of r's check.
func (t *tree) run(r rule) []string {
	var files []*file
	var out []string
	for _, dir := range r.dirs {
		n := len(files)
		for _, f := range t.files {
			if under(f.path, dir) {
				files = append(files, f)
			}
		}
		if len(files) == n {
			out = append(out, dir+": no Go files in scope")
		}
	}
	have := map[string]bool{} // files and declarations in scope
	for _, f := range files {
		have[f.path] = true
		for _, d := range f.syntax.Decls {
			for _, name := range declared(d) {
				have[name] = true
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && r.flag != nil && r.flag(f, d, e) {
					out = append(out, t.at(e, types.ExprString(e)))
				}
				return true
			})
		}
	}
	for _, a := range r.anchors {
		if !have[a] {
			out = append(out, a+": not found")
		}
	}
	if r.check != nil {
		out = append(out, r.check(t, files)...)
	}
	slices.Sort(out)
	return out
}

func (t *tree) at(n ast.Node, what string) string { return t.pos(n.Pos(), what) }

func (t *tree) pos(pos token.Pos, what string) string {
	p := t.fset.Position(pos)
	return fmt.Sprintf("%s:%d: %s", t.rel(p.Filename), p.Line, what)
}

func under(path, dir string) bool { return dir == "." || strings.HasPrefix(path, dir+"/") }

// is reports whether e is the selector pkg.Name, where pkg is the name f
// binds to import path and Name is one of names; a name ending in *
// matches by prefix.
func (f *file) is(e ast.Expr, path string, names ...string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && f.imports[id.Name] == path && slices.ContainsFunc(names, func(n string) bool {
		prefix, wild := strings.CutSuffix(n, "*")
		return n == s.Sel.Name || wild && strings.HasPrefix(s.Sel.Name, prefix)
	})
}

// sliceOf reports whether e is the slice type []pkg.Name.
func (f *file) sliceOf(e ast.Expr, path, name string) bool {
	a, ok := e.(*ast.ArrayType)
	return ok && a.Len == nil && f.is(a.Elt, path, name)
}

// named returns the name e refers to: an identifier's, or a selector's
// right side.
func named(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// declared returns the names a top-level declaration declares: its
// types, its function, or its method as "Type.Name".
func declared(d ast.Decl) []string {
	var names []string
	switch d := d.(type) {
	case *ast.GenDecl:
		for _, s := range d.Specs {
			if ts, ok := s.(*ast.TypeSpec); ok {
				names = append(names, ts.Name.Name)
			}
		}
	case *ast.FuncDecl:
		name := d.Name.Name
		if d.Recv != nil {
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			name = types.ExprString(typ) + "." + name
		}
		names = append(names, name)
	}
	return names
}

// str returns the value of a string literal; "" for anything else.
func str(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, _ := strconv.Unquote(lit.Value)
	return s
}
