package archtest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/types"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

var rules = []rule{{
	name:    "decode",
	reason:  "internal/trace decodes each on-disk format in codec.go alone, and only codec.go and the three writers name a format constant; a byte-order decode, a format constant or a bufio reader anywhere else is a fourth hand-written decoder growing back",
	dirs:    []string{"internal/trace"},
	anchors: []string{"internal/trace/codec.go"},
	flag: func(f *file, _ ast.Decl, e ast.Expr) bool {
		base := path.Base(f.path)
		switch e := e.(type) {
		case *ast.SelectorExpr:
			// A ByteOrder method on any value; a package's Uint64, such as
			// atomic's, is a type.
			id, _ := e.X.(*ast.Ident)
			order := slices.Contains([]string{"Uint16", "Uint32", "Uint64"}, e.Sel.Name) && (id == nil || f.imports[id.Name] == "")
			return base != "codec.go" && (order || f.is(e, "encoding/binary", "Read")) || f.is(e, "bufio", "NewReader*")
		case *ast.Ident:
			return slices.Contains([]string{"nativeMagic", "pcapMagicMicros", "pcapMagicNanos", "erfTypeHDLCPOS", "hdlcHeaderLen"}, e.Name) &&
				!slices.Contains([]string{"codec.go", "native.go", "pcap.go", "erf.go"}, base)
		}
		return false
	},
}, {
	name:    "window",
	reason:  "internal/trace buffers input in one window with no per-reader mode (a field named exact, or any bool), and the tail reader checks the tailed file (os.Stat, checkFile) only in tailSource.Read: once per refill, never per record",
	dirs:    []string{"internal/trace"},
	anchors: []string{"window", "tailSource.Read"},
	flag: func(f *file, d ast.Decl, e ast.Expr) bool {
		if id, _ := e.(*ast.Ident); slices.Contains(declared(d), "window") {
			return id != nil && (id.Name == "exact" || id.Name == "bool")
		}
		call, ok := e.(*ast.CallExpr)
		return !slices.Contains(declared(d), "tailSource.Read") && (f.is(e, "os", "Stat") || ok && named(call.Fun) == "checkFile")
	},
}, {
	name:   "persistence",
	reason: "every file the system persists goes through internal/durable (OpenLog, Replay, Save, Load); a temp file, an O_APPEND open or a .corrupt/.quarantine sidecar anywhere else (bench/ and tests aside, which damage files on purpose) is a hand-written persistence path",
	dirs:   []string{"."},
	flag: func(f *file, _ ast.Decl, e ast.Expr) bool {
		return !under(f.path, "internal/durable") && !under(f.path, "bench") &&
			(f.is(e, "os", "CreateTemp", "O_APPEND") || f.is(e, "syscall", "O_APPEND") || str(e) == ".corrupt" || str(e) == ".quarantine")
	},
}, {
	name:   "onepass",
	reason: "loopdetect reads a trace once and keeps none of it; a record slice, trace.ReadAll or core.BatchObserver in its non-test code is the whole-trace pipeline growing back",
	dirs:   []string{"cmd/loopdetect"},
	flag: func(f *file, _ ast.Decl, e ast.Expr) bool {
		return f.sliceOf(e, "loopscope/internal/trace", "Record") || f.is(e, "loopscope/internal/trace", "ReadAll") ||
			f.is(e, "loopscope/internal/core", "BatchObserver")
	},
}, {
	name:   "fibscan-stream",
	reason: "fibscan holds one snapshot and a Timeline whatever the file's length (no fibscan.ReadFile, fibscan.Decode, ScanTimeline or snapshot slice in the command); internal/fibscan lets equal tables, not revisions, license reuse, and equal bytes, not a second encoding/json scan (json.RawMessage, a Token walk), find a repeated router",
	dirs:   []string{"cmd/fibscan", "internal/fibscan"},
	flag: func(f *file, _ ast.Decl, e ast.Expr) bool {
		const fibscan = "loopscope/internal/fibscan"
		id, _ := e.(*ast.Ident)
		if under(f.path, "cmd/fibscan") {
			return f.is(e, fibscan, "ReadFile", "Decode") || f.sliceOf(e, fibscan, "Snapshot") || id != nil && id.Name == "ScanTimeline"
		}
		sel, _ := e.(*ast.SelectorExpr)
		return id != nil && id.Name == "revisionKey" || f.is(e, "encoding/json", "RawMessage") || sel != nil && sel.Sel.Name == "Token"
	},
}, {
	name:   "logging",
	reason: "library code (internal/, and pkg/, which prints nothing today) logs through the obs slog logger (obs.NewLogger), so -log-level, -log-format and the per-level counters hold; log.Print*, log.Fatal*, log.Panic* and fmt.Print* belong in cmd/",
	dirs:   []string{"internal", "pkg"},
	flag: func(f *file, _ ast.Decl, e ast.Expr) bool {
		return f.is(e, "log", "Print*", "Fatal*", "Panic*") || f.is(e, "fmt", "Print*")
	},
}, {
	name:   "fences",
	reason: "the detectors read packet traces and FIB snapshots, never a simulated network, so no shipping binary links the simulator; lsq is built on pkg/loopscope alone, and fibscan, the packet-free tier, links neither the HTTP stack nor the wire schema",
	dirs:   []string{"cmd/loopdetect", "cmd/loopscoped", "cmd/loopscope-agg", "cmd/fibscan", "cmd/lsq"},
	check:  fences,
}, {
	name:   "wire",
	reason: "every JSON document the daemon and the aggregator emit is declared once, in pkg/loopscope, and the servers alias it; a struct under internal/ or cmd/ whose JSON names (two or more) are the same set as a pkg/loopscope type's is a second declaration, kept in step only by luck, and a map[string]any literal in internal/serve, internal/agg or cmd/lsq, or a JSON-tagged anonymous struct in a pkg/loopscope function, is a body no type declares",
	dirs:   []string{"pkg/loopscope", "internal", "cmd"},
	flag: func(f *file, d ast.Decl, e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CompositeLit:
			m, ok := e.Type.(*ast.MapType)
			server := under(f.path, "internal/serve") || under(f.path, "internal/agg") || under(f.path, "cmd/lsq")
			return ok && server && types.ExprString(m.Key) == "string" && slices.Contains([]string{"any", "interface{}"}, types.ExprString(m.Value))
		case *ast.StructType:
			fn, ok := d.(*ast.FuncDecl)
			return ok && fn.Body != nil && e.Pos() > fn.Body.Lbrace && under(f.path, "pkg/loopscope") && len(jsonNames(e)) > 0
		}
		return false
	},
	check: wire,
}, {
	name:   "lend",
	reason: "every trace source lends (trace.Source is Meta and Borrow) and a kept record is copied by an owning read over Borrow; a Next() (trace.Record, error) anywhere but trace.File, which bench/ still compiles against, is a second read method on a source growing back, and a Borrow that returns a trace.Record, rather than fill the caller's, copies 48 bytes through every frame between the codec and the consumer",
	dirs:   []string{"."},
	check:  lend,
}, {
	name:   "http-surface",
	reason: `the daemon and the aggregator serve one HTTP surface, under /api/v1/, so a retired path answers 404 on both tiers; the metrics handler's own routes (/metrics, /debug/) come in through its "/" mount`,
	dirs:   []string{"internal/serve", "internal/agg"},
	flag: func(_ *file, _ ast.Decl, e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || named(call.Fun) != "HandleFunc" && named(call.Fun) != "Handle" {
			return false
		}
		pattern := str(call.Args[0])
		route := pattern[strings.LastIndexByte(pattern, ' ')+1:]
		return pattern != "" && route != "/" && !strings.HasPrefix(route, "/api/v1/")
	},
}, {
	name:   "exports",
	reason: "an exported name under internal/ is surface another package relies on: a non-test file of another package (cmd/, examples/ and bench/ count) uses it, or it is a method an interface of the module or of a linked standard package calls; a name only its own package or tests use is unexported, or deleted with the test that only checked it, and a test helper other packages share is listed, with its reason, in exportAllow",
	dirs:   []string{"."},
	check:  exports,
}}

// simulation matches the packages that stand in for the paper's
// backbone (the simulator, its routing protocols, traffic and tap) and
// the packages only the paper regenerator uses.
var simulation = regexp.MustCompile(`^loopscope/(internal/(netsim|events|scenario|capture|traffic|routing/(igp|bgp|dvr))|cmd/paperrepro/internal)(/|$)`)

// fences checks what each shipping binary links, transitively: never the
// simulator, and for lsq and fibscan exactly the module packages listed;
// fibscan links no net/http either.
func fences(t *tree, _ []*file) []string {
	var out []string
	for bin, only := range map[string][]string{
		"loopdetect": nil, "loopscoped": nil, "loopscope-agg": nil,
		"lsq": {"loopscope/cmd/lsq", "loopscope/pkg/loopscope"},
		"fibscan": {"loopscope/cmd/fibscan", "loopscope/internal/fibscan", "loopscope/internal/packet",
			"loopscope/internal/routing", "loopscope/internal/stats"},
	} {
		chain, err := t.linked("loopscope/cmd/"+bin, bin == "fibscan")
		if err != nil {
			out = append(out, bin+": "+err.Error())
			continue
		}
		var own []string
		for pkg := range chain {
			if simulation.MatchString(pkg) {
				out = append(out, bin+" links the simulator: "+chain[pkg])
			}
			if strings.HasPrefix(pkg, "loopscope/") {
				own = append(own, pkg)
			}
		}
		slices.Sort(own)
		if only != nil && !slices.Equal(own, only) {
			out = append(out, fmt.Sprintf("%s links %v, want %v", bin, own, only))
		}
		if c, ok := chain["net/http"]; ok && bin == "fibscan" {
			out = append(out, "fibscan links net/http: "+c)
		}
	}
	return out
}

// linked walks the non-test imports of pkg and returns every package it
// links, each mapped to the import chain that first reached it. The
// module's packages resolve inside the tree; standard library packages
// are followed only when std is set, each from its importer's directory
// so that the standard library's vendored packages resolve too.
func (t *tree) linked(pkg string, std bool) (map[string]string, error) {
	chain := map[string]string{pkg: pkg}
	type edge struct{ path, from string } // from: the importer's directory
	for queue := []edge{{pkg, ""}}; len(queue) > 0; queue = queue[1:] {
		var p *build.Package
		var err error
		if rel, ok := strings.CutPrefix(queue[0].path, "loopscope/"); ok {
			p, err = build.ImportDir(filepath.Join(t.root, rel), 0)
		} else {
			p, err = build.Import(queue[0].path, queue[0].from, 0)
		}
		if err != nil {
			return nil, err
		}
		for _, imp := range p.Imports {
			if _, seen := chain[imp]; !seen && imp != "C" && (std || strings.HasPrefix(imp, "loopscope/")) {
				chain[imp] = chain[queue[0].path] + " -> " + imp
				queue = append(queue, edge{imp, p.Dir})
			}
		}
	}
	return chain, nil
}

// wire reports every struct outside pkg/loopscope that names the same
// set of two or more JSON fields as a pkg/loopscope type. The scope
// lists pkg/loopscope first, so its types are known before the rest is
// read.
func wire(t *tree, files []*file) []string {
	schema := map[string]string{} // sorted JSON names -> pkg/loopscope type
	var out []string
	for _, f := range files {
		home := under(f.path, "pkg/loopscope")
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && home && n.Assign == 0 && len(jsonNames(st)) > 1 {
					schema[strings.Join(jsonNames(st), ",")] = n.Name.Name
				}
			case *ast.StructType:
				if w, ok := schema[strings.Join(jsonNames(n), ",")]; ok && !home && len(jsonNames(n)) > 1 {
					out = append(out, t.at(n, "redeclares loopscope."+w))
				}
			}
			return true
		})
	}
	if len(schema) == 0 {
		out = append(out, "pkg/loopscope: no JSON-tagged types")
	}
	return out
}

// jsonNames returns the JSON names st's tags give its fields, sorted;
// untagged and "-" fields are left out.
func jsonNames(st *ast.StructType) []string {
	var names []string
	for _, fld := range st.Fields.List {
		if fld.Tag == nil {
			continue
		}
		tag, _ := strconv.Unquote(fld.Tag.Value)
		if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" && name != "-" {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// lend reports every method, and every interface method, declared as
// Next() (trace.Record, error) outside bench/, trace.File's aside, and
// every Borrow there whose results include a trace.Record.
func lend(t *tree, files []*file) []string {
	var out []string
	for _, f := range files {
		home := path.Dir(f.path) == "internal/trace"
		record := func(e ast.Expr) bool {
			id, _ := e.(*ast.Ident)
			return f.is(e, "loopscope/internal/trace", "Record") || home && id != nil && id.Name == "Record"
		}
		read := func(name *ast.Ident, fn *ast.FuncType, owner string) {
			var res []ast.Expr
			for _, r := range fn.Results.List {
				for range max(1, len(r.Names)) {
					res = append(res, r.Type)
				}
			}
			next := name.Name == "Next" && fn.Params.NumFields() == 0 && len(res) == 2 && record(res[0]) &&
				types.ExprString(res[1]) == "error" && !(home && owner == "File.Next")
			if next || name.Name == "Borrow" && slices.ContainsFunc(res, record) {
				out = append(out, t.at(name, owner))
			}
		}
		if under(f.path, "bench") {
			continue
		}
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && n.Type.Results != nil {
					read(n.Name, n.Type, declared(n)[0])
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if fn, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 && fn.Results != nil {
						read(m.Names[0], fn, "interface method "+m.Names[0].Name)
					}
				}
			}
			return true
		})
	}
	return out
}
