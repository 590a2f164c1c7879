package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// exportAllow are the exported names the exports rule lets stand with no
// user in another package's non-test code, each with its reason. A key
// is a package's directory, for every name in it, or the directory and
// a name: "internal/obs.TB", "internal/obs.Type.Method". At most ten.
var exportAllow = map[string]string{
	"internal/chaos":                   "the fault-injection harness: other packages' tests wrap their sources, sinks and files in it",
	"internal/obs.VerifyNoLeaks":       "the goroutine-leak check other packages' tests end on",
	"internal/obs.TB":                  "VerifyNoLeaks's parameter: the part of testing.TB it needs, so obs imports no testing",
	"internal/core.NaiveDetectRecords": "the reference detector other packages' tests compare against",
	"internal/traffic.Synthesize":      "the synthetic traffic mix other packages' tests feed the detector",
	"internal/trace.Validate":          "the trace contract check other packages' tests run on what they write",
	"internal/trace.MeterSource":       "the ingest tap the root BenchmarkObsOverhead puts over an in-memory source, so its instrumented mode costs what trace.Open's tap costs and no decode",
}

// stdImporter type-checks, from GOROOT source, the standard packages the
// trees import, once per test binary.
var stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)

// typed is one package of a tree, type-checked over its non-test files.
type typed struct {
	dir  string // relative to the tree root; "." for the root
	pkg  *types.Package
	info *types.Info
}

// typecheck type-checks every package of the tree, resolving the
// module's imports ("loopscope/...") inside it, and returns them in
// directory order.
func (t *tree) typecheck() ([]*typed, error) {
	syntax := map[string]*ast.File{}
	var dirs []string
	for _, f := range t.files {
		syntax[f.path] = f.syntax
		if dir := path.Dir(f.path); !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
	}
	slices.Sort(dirs)
	byPath := map[string]*typed{}
	var imp importerFunc
	check := func(importPath string) (*typed, error) {
		if p, ok := byPath[importPath]; ok {
			return p, nil
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(importPath, "loopscope"), "/")
		if dir == "" {
			dir = "."
		}
		bp, err := build.ImportDir(filepath.Join(t.root, dir), 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			files = append(files, syntax[path.Join(dir, name)])
		}
		var errs []error
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}}
		pkg, _ := conf.Check(importPath, t.fset, files, info)
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		p := &typed{dir, pkg, info}
		byPath[importPath] = p
		return p, nil
	}
	imp = func(importPath string) (*types.Package, error) {
		if importPath != "loopscope" && !strings.HasPrefix(importPath, "loopscope/") {
			return stdImporter.Import(importPath)
		}
		p, err := check(importPath)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	var pkgs []*typed
	for _, dir := range dirs {
		p, err := check(path.Join("loopscope", dir))
		var none *build.NoGoError
		if errors.As(err, &none) {
			continue // every file is another platform's
		}
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exports reports every exported name of a package under internal/ or
// cmd/*/internal/ (a top-level name, or a method of a top-level type)
// that no non-test file of another package uses and exportAllow does not
// list, and every name exportAllow lists that one does use. A name is
// used when another package refers to it; a type also when another
// package holds a value of it or selects one of its fields or methods; a
// method also when its type implements an interface that has it,
// declared in the tree, anonymous ones included, or in a standard
// package the tree links.
func exports(t *tree, _ []*file) []string {
	pkgs, err := t.typecheck()
	if err != nil {
		return []string{"type-checking the tree: " + err.Error()}
	}
	used := map[types.Object]bool{}
	byMethod := map[string][]*types.Interface{} // method name -> interfaces that have it
	addIface := func(typ types.Type) {
		if i, ok := typ.Underlying().(*types.Interface); ok && i.IsMethodSet() {
			for j := range i.NumMethods() {
				byMethod[i.Method(j).Name()] = append(byMethod[i.Method(j).Name()], i)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var scopes func(p *types.Package)
	scopes = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scopes(imp)
		}
	}
	for _, p := range pkgs {
		scopes(p.pkg)
		other := func(obj types.Object) bool { return obj != nil && obj.Pkg() != nil && obj.Pkg() != p.pkg }
		var mark func(typ types.Type)
		mark = func(typ types.Type) {
			switch typ := typ.(type) {
			case *types.Pointer:
				mark(typ.Elem())
			case *types.Slice:
				mark(typ.Elem())
			case *types.Array:
				mark(typ.Elem())
			case *types.Map:
				mark(typ.Key())
				mark(typ.Elem())
			case *types.Chan:
				mark(typ.Elem())
			case *types.Named:
				if other(typ.Obj()) {
					used[typ.Origin().Obj()] = true
				}
			}
		}
		for _, obj := range p.info.Uses {
			if other(obj) {
				used[origin(obj)] = true
			}
		}
		for _, sel := range p.info.Selections {
			mark(sel.Recv())
			if other(sel.Obj()) {
				used[origin(sel.Obj())] = true
			}
		}
		for e, tv := range p.info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				addIface(tv.Type) // an anonymous interface, or a declared one's body
			}
			mark(tv.Type)
		}
	}
	implements := func(typ types.Type, method string) bool {
		for _, i := range byMethod[method] {
			if types.Implements(typ, i) || types.Implements(types.NewPointer(typ), i) {
				return true
			}
		}
		return false
	}
	var out []string
	if len(exportAllow) > 10 {
		out = append(out, fmt.Sprintf("exportAllow lists %d names, at most 10", len(exportAllow)))
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") && !(strings.HasPrefix(p.dir, "cmd/") && strings.Contains(p.dir, "/internal/")) {
			continue
		}
		check := func(obj types.Object, name string, used bool) {
			listed := exportAllow[p.dir+"."+name] != ""
			switch {
			case !obj.Exported():
			case used && listed:
				out = append(out, t.pos(obj.Pos(), p.pkg.Name()+"."+name+": in exportAllow, but another package uses it"))
			case !used && !listed && exportAllow[p.dir] == "":
				out = append(out, t.pos(obj.Pos(), p.pkg.Name()+"."+name+": no user outside its package"))
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(obj, name, used[obj])
			named, ok := obj.Type().(*types.Named)
			if !ok || named.Obj() != obj { // not a type, or an alias
				continue
			}
			for j := range named.NumMethods() {
				m := named.Method(j)
				check(m, name+"."+m.Name(), used[m] || named.TypeParams().Len() == 0 && implements(named, m.Name()))
			}
		}
	}
	return out
}

// origin returns the generic declaration an instantiated function,
// method or field comes from.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}
