package archtest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// documents are the docs whose backticked Go names must name something.
var documents = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// notNames are backticked tokens in those documents that read as Go
// names but name no declaration, each with where it comes from.
var notNames = map[string]string{
	"CLAMPED":  "a column of `lsq latency`'s table (README.md)",
	"SLOWEST":  "a column of `lsq latency`'s table (README.md)",
	"D":        "the duration operand of `-poll-max D` (README.md)",
	"ctx.Done": "context.Context's Done, called on a value (DESIGN.md)",
}

var (
	// codeBlock matches a fenced block, whose backticks quote nothing.
	codeBlock = regexp.MustCompile("(?ms)^```.*?^```$")
	codeSpan  = regexp.MustCompile("`([^`\n]+)`")
	// goName matches a dotted name, as written, called, pointed to, taken
	// the address of, in a slice type or as a composite literal:
	// `core.Run`, `OpenOptions.Metrics`, `TailReader`, `core.Run(eng, src)`,
	// `*core.Result`, `&trace.OpenOptions{Salvage: true}`, `[]trace.Record`;
	// it is checked when some part of it is exported.
	goName   = regexp.MustCompile(`^(?:\*|&|\[\])?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\)|\{.*\})?$`)
	exported = regexp.MustCompile(`(^|\.)[A-Z]`)
	// fileName matches a token with a file extension, which is a file's
	// name and not a Go name: `BENCHMARK.json`, `README.md`.
	fileName = regexp.MustCompile(`\.(go|mod|md|json|jsonl|txt|golden|csv|lspt|pcap|erf|gz|sh|yml)$`)
)

// TestDocNamesResolve holds the documents to the code: every backticked
// pkg.Name, Type.Member or exported identifier in them must resolve to a
// declaration in the module, or in a standard-library package the module
// imports, or be one of notNames. A name that no longer resolves is a
// document describing code that is gone.
func TestDocNamesResolve(t *testing.T) {
	root := moduleRoot(t)
	decls := declarations(t, root)
	for _, doc := range documents {
		for _, u := range decls.unresolved(t, filepath.Join(root, doc)) {
			t.Errorf("%s:%s names no declaration; name what exists, or list it in notNames with its reason", doc, u)
		}
	}
	// The rule must fire: the testdata document names removed and
	// unexported identifiers among live ones.
	dir := filepath.Join("testdata", "docnames")
	want, err := os.ReadFile(filepath.Join(dir, "want.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(decls.unresolved(t, filepath.Join(dir, "doc.md")), "\n") + "\n"; got != string(want) {
		t.Errorf("%s: got\n%swant\n%s", dir, got, want)
	}
}

// index holds what the module declares and, parsed when a document
// first names one, what the standard packages it imports declare.
type index struct {
	pkgs    map[string]map[string]bool // module package name -> its names and "Type.Member"s
	members map[string]bool            // every name, member and "Type.Member" in the module
	std     map[string][]string        // standard package name -> import paths the module uses
	stdDecl map[string]map[string]bool // standard import path -> its names and "Type.Member"s
}

// declarations indexes every Go file of the module, tests included
// (documents name tests), outside testdata and dot directories.
func declarations(t *testing.T, root string) *index {
	x := &index{pkgs: map[string]map[string]bool{}, members: map[string]bool{},
		std: map[string][]string{}, stdDecl: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if x.pkgs[pkg] == nil {
			x.pkgs[pkg] = map[string]bool{}
		}
		declare(f, func(name string) {
			x.pkgs[pkg][name] = true
			x.members[name] = true
			if _, member, ok := strings.Cut(name, "."); ok {
				x.members[member] = true
			}
		})
		for _, s := range f.Imports {
			p, _ := strconv.Unquote(s.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p, "loopscope/") && !slices.Contains(x.std[name], p) {
				x.std[name] = append(x.std[name], p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// declare calls put with each name f declares at top level (function,
// type, variable, constant) and with each method, struct field and
// interface method as "Type.Member".
func declare(f *ast.File, put func(name string)) {
	members := func(typ string, list *ast.FieldList) {
		for _, field := range list.List {
			for _, n := range field.Names {
				put(typ + "." + n.Name)
			}
			if len(field.Names) == 0 { // embedded
				put(typ + "." + base(field.Type))
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				put(d.Name.Name)
			} else {
				put(base(d.Recv.List[0].Type) + "." + d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					put(s.Name.Name)
					switch typ := s.Type.(type) {
					case *ast.StructType:
						members(s.Name.Name, typ.Fields)
					case *ast.InterfaceType:
						members(s.Name.Name, typ.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						put(n.Name)
					}
				}
			}
		}
	}
}

// base returns the name of the type e spells, without a pointer or type
// arguments.
func base(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return base(e.X)
	case *ast.IndexExpr:
		return base(e.X)
	case *ast.IndexListExpr:
		return base(e.X)
	}
	return named(e)
}

// unresolved returns the Go names in doc, as "line: `name`", that name
// nothing.
func (x *index) unresolved(t *testing.T, doc string) []string {
	b, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Blank out fenced blocks, keeping their newlines so lines count true.
	text := codeBlock.ReplaceAllStringFunc(string(b), func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	var out []string
	for i, line := range strings.Split(text, "\n") {
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			n := goName.FindStringSubmatch(m[1])
			if n == nil || !exported.MatchString(n[1]) || fileName.MatchString(n[1]) || notNames[n[1]] != "" {
				continue
			}
			if !x.resolves(t, n[1]) {
				out = append(out, fmt.Sprintf("%d: `%s`", i+1, n[1]))
			}
		}
	}
	return out
}

// resolves reports whether name is declared: a bare name anywhere in the
// module; pkg.Name or pkg.Type.Member in a module or imported standard
// package of that name; Type.Member in the module; and value.Member, a
// selector on a variable, when some module type has that member.
func (x *index) resolves(t *testing.T, name string) bool {
	head, rest, dotted := strings.Cut(name, ".")
	if !dotted {
		return x.members[name]
	}
	pkg, isPkg := x.pkgs[head]
	if isPkg && pkg[rest] {
		return true
	}
	for _, path := range x.std[head] {
		if x.stdPkg(t, path)[rest] {
			return true
		}
	}
	if isPkg || len(x.std[head]) > 0 {
		return false
	}
	if exported.MatchString(head) {
		return x.members[name]
	}
	return x.members[rest]
}

// stdPkg returns what the standard package at path declares, parsed
// from GOROOT on first use.
func (x *index) stdPkg(t *testing.T, path string) map[string]bool {
	if names, ok := x.stdDecl[path]; ok {
		return names
	}
	p, err := build.Default.Import(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declare(f, func(name string) { names[name] = true })
	}
	x.stdDecl[path] = names
	return names
}
