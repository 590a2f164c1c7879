package loopscope_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// simulation matches the packages that stand in for the paper's
// backbone (the simulator, its routing protocols, traffic and tap) and
// the packages only the paper regenerator uses.
var simulation = regexp.MustCompile(`^loopscope/(internal/(netsim|events|scenario|capture|traffic|routing/(igp|bgp|dvr))|cmd/paperrepro/internal)(/|$)`)

// linked walks the non-test imports of root and returns every package
// it links, each mapped to the package that first imported it. Standard
// library packages are followed only when std is set.
func linked(t *testing.T, root string, std bool) map[string]string {
	t.Helper()
	via := map[string]string{root: ""}
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		pkg := queue[0]
		var p *build.Package
		var err error
		if rel, ok := strings.CutPrefix(pkg, "loopscope/"); ok {
			p, err = build.ImportDir(rel, 0)
		} else {
			p, err = build.Import(pkg, "", 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports {
			if _, seen := via[imp]; !seen && (std || strings.HasPrefix(imp, "loopscope/")) && imp != "C" {
				via[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
	return via
}

// chain renders how root reached pkg.
func chain(via map[string]string, pkg string) string {
	out := pkg
	for p := via[pkg]; p != ""; p = via[p] {
		out = p + " -> " + out
	}
	return out
}

// TestShippingBinariesLinkNoSimulator walks the non-test imports of
// every shipping binary and fails on any simulation package: the
// detectors read packet traces and FIB snapshots, never a simulated
// network.
func TestShippingBinariesLinkNoSimulator(t *testing.T) {
	for _, bin := range []string{"loopdetect", "loopscoped", "loopscope-agg", "fibscan", "lsq"} {
		via := linked(t, "loopscope/cmd/"+bin, false)
		for pkg := range via {
			if simulation.MatchString(pkg) {
				t.Errorf("%s links the simulator: %s", bin, chain(via, pkg))
			}
		}
	}
}

// TestClientAndScannerLinkFences: lsq is built on the public client
// alone, and fibscan, the packet-free tier, links neither the HTTP
// stack nor the wire schema — it reads FIB snapshot files.
func TestClientAndScannerLinkFences(t *testing.T) {
	for pkg := range linked(t, "loopscope/cmd/lsq", false) {
		if pkg != "loopscope/cmd/lsq" && pkg != "loopscope/pkg/loopscope" {
			t.Errorf("lsq links %s; it may link only pkg/loopscope", pkg)
		}
	}
	via := linked(t, "loopscope/cmd/fibscan", true)
	var own []string
	for pkg := range via {
		if strings.HasPrefix(pkg, "loopscope/") {
			own = append(own, pkg)
		}
	}
	sort.Strings(own)
	want := []string{"loopscope/cmd/fibscan", "loopscope/internal/fibscan", "loopscope/internal/packet",
		"loopscope/internal/routing", "loopscope/internal/stats"}
	if !reflect.DeepEqual(own, want) {
		t.Errorf("fibscan links %v, want %v", own, want)
	}
	if _, ok := via["net/http"]; ok {
		t.Errorf("fibscan links net/http: %s", chain(via, "net/http"))
	}
}

// TestWireSchemaDeclaredOnce: every JSON document the daemon and the
// aggregator emit is declared once, in pkg/loopscope, and the servers
// alias it. A struct under internal/ or cmd/ whose JSON tag names (two
// or more) are the same set as a pkg/loopscope type's is a second
// declaration of that document, kept in step only by luck.
func TestWireSchemaDeclaredOnce(t *testing.T) {
	wire := map[string]string{} // tag set -> pkg/loopscope type
	for _, s := range jsonStructs(t, "pkg/loopscope") {
		if s.named != "" {
			wire[s.tags] = s.named
		}
	}
	if len(wire) == 0 {
		t.Fatal("no JSON-tagged types found in pkg/loopscope")
	}
	dupes := func(dir string) []string {
		var out []string
		for _, s := range jsonStructs(t, dir) {
			if w, ok := wire[s.tags]; ok {
				out = append(out, s.pos+" redeclares loopscope."+w)
			}
		}
		return out
	}
	for _, dir := range []string{"internal", "cmd"} {
		for _, d := range dupes(dir) {
			t.Error(d)
		}
	}
	// The rule fires on a copy of Event's fields.
	if got := dupes(filepath.Join("testdata", "fence")); len(got) != 1 || !strings.HasSuffix(got[0], "loopscope.Event") {
		t.Errorf("testdata/fence: got %v, want one copy of loopscope.Event", got)
	}
}

// jsonStruct is one struct type with at least two JSON-named fields.
type jsonStruct struct {
	pos   string
	named string // the type's name; empty for an anonymous struct
	tags  string // sorted JSON names, comma-joined
}

// jsonStructs parses every non-test Go file under dir, testdata
// directories below it aside, and returns its struct types that name
// two or more fields in JSON tags.
func jsonStructs(t *testing.T, dir string) []jsonStruct {
	t.Helper()
	fset := token.NewFileSet()
	var out []jsonStruct
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && e.Name() == "testdata" {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Assign == 0 {
					names[st] = n.Name.Name
				}
			case *ast.StructType:
				if tags := jsonNames(n); len(tags) >= 2 {
					out = append(out, jsonStruct{pos: fset.Position(n.Pos()).String(), named: names[n], tags: strings.Join(tags, ",")})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// jsonNames returns the sorted JSON names a struct's tags give its
// fields; untagged and "-" fields are left out.
func jsonNames(st *ast.StructType) []string {
	var names []string
	for _, f := range st.Fields.List {
		if f.Tag == nil {
			continue
		}
		tag, err := strconv.Unquote(f.Tag.Value)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
		if name != "" && name != "-" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
