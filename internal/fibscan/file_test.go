package fibscan

import (
	"bytes"
	"cmp"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

func sampleFile() *SnapshotFile {
	return &SnapshotFile{
		Version: FileVersion,
		Network: "test-net",
		Snapshots: []Snapshot{
			{
				TakenNs: 1_000_000,
				Routers: []RouterFIB{
					{
						Name:     "r1",
						Revision: 3,
						Routes: []Route{
							{Prefix: routing.MustParsePrefix("10.0.0.0/8"), NextHop: "r2"},
							{Prefix: routing.MustParsePrefix("10.1.0.0/16"), NextHop: "r3"},
						},
						Locals: []routing.Prefix{routing.MustParsePrefix("192.0.2.0/24")},
					},
					{Name: "r2", Revision: 1},
				},
			},
			{
				TakenNs: 2_000_000,
				Routers: []RouterFIB{{Name: "r1", Revision: 4}},
			},
		},
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", f, got)
	}
}

func TestSnapshotFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snaps.json")
	f := sampleFile()
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("disk round trip mismatch")
	}
}

// badSnapshotFiles are inputs Decode must refuse; they also seed
// FuzzReadTimeline.
var badSnapshotFiles = map[string]string{
	"wrong version":   `{"version": 99, "snapshots": []}`,
	"unknown field":   `{"version": 1, "snapshots": [], "bogus": true}`,
	"out of order":    `{"version": 1, "snapshots": [{"takenNs": 5, "routers": []}, {"takenNs": 1, "routers": []}]}`,
	"malformed json":  `{"version": 1`,
	"bad prefix text": `{"version": 1, "snapshots": [{"takenNs": 1, "routers": [{"name": "a", "revision": 1, "routes": [{"prefix": "10.0.0.0/99", "nextHop": "b"}]}]}]}`,
	// The file ends where the document ends, and says a thing once.
	"trailing document":    `{"version":1,"snapshots":[]} garbage {"version":99}`,
	"trailing value":       `{"version":1,"snapshots":[]} {"version":1,"snapshots":[]}`,
	"snapshots twice":      `{"version":1,"snapshots":[{"takenNs":1,"routers":[]}],"snapshots":[]}`,
	"version twice":        `{"version":99,"version":1,"snapshots":[]}`,
	"routers twice":        `{"version":1,"snapshots":[{"takenNs":1,"routers":[{"name":"a"}],"routers":[]}]}`,
	"case-folded key":      `{"VERSION":1,"snapshots":[]}`,
	"version after, wrong": `{"snapshots":[{"takenNs":1,"routers":[]}],"version":99}`,
	"version missing":      `{"snapshots":[]}`,
	"unknown in snapshot":  `{"version":1,"snapshots":[{"takenNs":1,"routers":[],"bogus":1}]}`,
	"unknown in router":    `{"version":1,"snapshots":[{"takenNs":1,"routers":[{"name":"a","bogus":1}]}]}`,
	"snapshot not object":  `{"version":1,"snapshots":[7]}`,
	"document not object":  `[]`,
	"cut inside snapshots": `{"version":1,"snapshots":[{"takenNs":1,"routers":[]}`,
	"cut after a key":      `{"version"`,
	"empty":                ``,
}

func TestSnapshotFileRejectsBadInput(t *testing.T) {
	cases := badSnapshotFiles
	for name, in := range cases {
		if _, err := decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}

	// Errors carry the byte offset at which the reader gave up.
	for name, want := range map[string]string{
		"trailing document": "offset 29: data after the end of the document",
		"snapshots twice":   `offset 65: duplicate key "snapshots"`,
	} {
		if _, err := decode(strings.NewReader(cases[name])); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to contain %q", name, err, want)
		}
	}

	// Order is checked as the file streams: snapshot 0 is handed out,
	// the misplaced snapshot 1 is refused on the spot, and the bytes
	// after it — here not even JSON — are never looked at.
	var seen []int64
	err := NewReader(strings.NewReader(`{"version":1,"snapshots":[{"takenNs":5,"routers":[]},{"takenNs":1,"routers":[]},{"takenNs":`)).
		Each(func(s *Snapshot) error { seen = append(seen, s.TakenNs); return nil })
	if len(seen) != 1 || seen[0] != 5 {
		t.Errorf("snapshots handed out before the misplaced one: %v", seen)
	}
	if err == nil || !strings.Contains(err.Error(), "snapshot out of order at index 1 (1 < 5)") {
		t.Errorf("out of order: error %v", err)
	}

	// A version that follows the snapshots is still checked, and still
	// accepted when right.
	if f, err := decode(strings.NewReader(`{"snapshots":[null,{"takenNs":1,"routers":null}],"network":"late","version":1}`)); err != nil ||
		len(f.Snapshots) != 2 || f.Network != "late" || f.Version != FileVersion {
		t.Errorf("version after snapshots: %+v, %v", f, err)
	}
}

func TestEncodeDefaultsVersion(t *testing.T) {
	f := &SnapshotFile{Snapshots: []Snapshot{}}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if f.Version != FileVersion {
		t.Errorf("Version = %d after Encode", f.Version)
	}
}

// encodeJSON is the writer Encode replaced, kept as its oracle:
// encoding/json's Encoder, indented one space a level.
func encodeJSON(t testing.TB, f *SnapshotFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encode returns what f.Encode writes.
func encode(t testing.TB, f *SnapshotFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// syntheticFile is a timeline of one Synthetic(routers, prefixes, k)
// per loop count k, a second apart.
func syntheticFile(routers, prefixes int, loops ...int) *SnapshotFile {
	f := &SnapshotFile{Version: FileVersion, Network: "synthetic"}
	for i, k := range loops {
		snap, _ := Synthetic(routers, prefixes, k)
		snap.TakenNs = int64(i) * 1e9
		f.Snapshots = append(f.Snapshots, snap)
	}
	return f
}

// Encode writes encoding/json's bytes on whole files too, where routers
// of several buffers' size go out between others.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	for name, f := range map[string]*SnapshotFile{
		"sample":          sampleFile(),
		"timeline":        syntheticFile(200, 800, 8, 20, 20, 8),
		"routers > flush": syntheticFile(20, 4000, 1, 2),
	} {
		if got, want := encode(t, f), encodeJSON(t, f); !bytes.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			t.Errorf("%s: %d bytes, encoding/json %d; first difference at byte %d", name, len(got), len(want), at)
		}
	}
}

// fuzzFile builds a snapshot file from FuzzEncodeMatchesEncodingJSON's
// values. shape gives each list two bits in turn: nil, empty, or one or
// two elements. The strings name the network, the routers and the next
// hops. asRead builds the file as Decode gives it back: strings as
// encoding/json reads their encoding, empty locals left out.
func fuzzFile(shape uint64, network, name, hop string, revision uint64, takenNs int64, addr uint32, bits uint8, asRead bool) *SnapshotFile {
	str := func(s string) string {
		if asRead {
			q, _ := json.Marshal(s) // a string marshals, and reads back
			json.Unmarshal(q, &s)
		}
		return s
	}
	list := func() (n int, isNil bool) {
		v := shape & 3
		shape = shape>>2 | v<<62
		return max(int(v)-1, 0), v == 0
	}
	prefix := func(i int) routing.Prefix {
		return routing.NewPrefix(packet.AddrFromUint32(addr), (int(bits)+i)%33)
	}
	f := &SnapshotFile{Version: FileVersion, Network: str(network)}
	if n, isNil := list(); !isNil {
		f.Snapshots = make([]Snapshot, n)
	}
	for i := range f.Snapshots {
		s := &f.Snapshots[i]
		s.TakenNs = takenNs
		if n, isNil := list(); !isNil {
			s.Routers = make([]RouterFIB, n)
		}
		for j := range s.Routers {
			r := &s.Routers[j]
			r.Name, r.Revision = str([]string{name, hop}[j]), revision>>j
			if n, isNil := list(); !isNil {
				r.Routes = make([]Route, n)
			}
			for k := range r.Routes {
				r.Routes[k] = Route{Prefix: prefix(k), NextHop: str([]string{hop, name}[k])}
			}
			if n, isNil := list(); !isNil && !(asRead && n == 0) {
				r.Locals = make([]routing.Prefix, n)
			}
			for k := range r.Locals {
				r.Locals[k] = prefix(k + 2)
			}
		}
	}
	return f
}

// FuzzEncodeMatchesEncodingJSON holds Encode against encodeJSON on files
// of every shape whose strings reach every name — quotes, HTML
// characters, control bytes, U+2028 and invalid UTF-8 among them — and
// requires Decode to read back what was encoded.
func FuzzEncodeMatchesEncodingJSON(f *testing.F) {
	f.Add(uint64(math.MaxUint64), "net", "r1", "r2", uint64(3), int64(1e9), uint32(0x0a000000), uint8(8))
	f.Add(uint64(0xaaaa_aaaa), "", "", "", uint64(math.MaxUint64), int64(math.MinInt64), uint32(0xc0000201), uint8(0))
	f.Add(uint64(0xffff_fffe), "<a&b>", `"q\`, "\u2028\u2029", uint64(0), int64(-1), uint32(0xffffffff), uint8(32))
	f.Add(uint64(math.MaxUint64), "\x00\t\x1f\x7f", "\xff\xfe", "é\xc3", uint64(1<<63), int64(math.MaxInt64), uint32(1), uint8(31))
	f.Add(uint64(0), "null snapshots", "", "", uint64(0), int64(0), uint32(0), uint8(0))
	f.Add(uint64(1), "", "empty snapshots", "", uint64(0), int64(0), uint32(0), uint8(0))
	f.Add(uint64(0b10), "", "null routers", "", uint64(0), int64(0), uint32(0), uint8(0))
	// One snapshot of two routers: null routes and empty locals, then
	// empty routes and null locals.
	f.Add(uint64(0b00_01_01_00_11_10), "", "a", "b", uint64(0), int64(0), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, shape uint64, network, name, hop string, revision uint64, takenNs int64, addr uint32, bits uint8) {
		file := fuzzFile(shape, network, name, hop, revision, takenNs, addr, bits, false)
		got := encode(t, file)
		if want := encodeJSON(t, file); !bytes.Equal(got, want) {
			t.Fatalf("Encode wrote\n%s\nencoding/json\n%s", got, want)
		}
		back, err := decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if want := fuzzFile(shape, network, name, hop, revision, takenNs, addr, bits, true); !reflect.DeepEqual(back, want) {
			t.Fatalf("read back\n%+v\nwant\n%+v", back, want)
		}
	})
}

// TestEncodeKnowsEveryField: what Encode writes of a file that fills
// every field is every field the four types tag for JSON, so a field
// added to the schema but not to the writer fails here instead of
// vanishing from files.
func TestEncodeKnowsEveryField(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(encode(t, sampleFile()), &doc); err != nil {
		t.Fatal(err)
	}
	snap := doc["snapshots"].([]any)[0].(map[string]any)
	router := snap["routers"].([]any)[0].(map[string]any)
	route := router["routes"].([]any)[0].(map[string]any)
	for _, c := range []struct {
		typ     reflect.Type
		written map[string]any
	}{
		{reflect.TypeFor[SnapshotFile](), doc},
		{reflect.TypeFor[Snapshot](), snap},
		{reflect.TypeFor[RouterFIB](), router},
		{reflect.TypeFor[Route](), route},
	} {
		var tagged []string
		for i := 0; i < c.typ.NumField(); i++ {
			if sf := c.typ.Field(i); sf.IsExported() && sf.Tag.Get("json") != "-" {
				name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
				tagged = append(tagged, cmp.Or(name, sf.Name))
			}
		}
		var written []string
		for k := range c.written {
			written = append(written, k)
		}
		slices.Sort(tagged)
		if slices.Sort(written); !slices.Equal(tagged, written) {
			t.Errorf("%v: fields %v, Encode writes %v", c.typ, tagged, written)
		}
	}
}

// TestEncodeAllocationBudget: Encode holds a router's bytes at a time,
// not the file's, so what it allocates is the same for 4 snapshots as
// for 16.
func TestEncodeAllocationBudget(t *testing.T) {
	const budget = 160 << 10
	for _, n := range []int{4, 16} {
		loops := make([]int, n)
		for i := range loops {
			loops[i] = []int{8, 20}[i%2]
		}
		f := syntheticFile(200, 800, loops...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f.Encode(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		size := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d snapshots: %d B allocated", n, size)
		if size > budget {
			t.Errorf("%d snapshots: Encode allocated %d B, budget %d", n, size, budget)
		}
	}
}
