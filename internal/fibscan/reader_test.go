package fibscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeWhole is the reference the Reader is held against: the whole
// document through encoding/json in one call, as Decode did before it
// became a loop over the Reader.
func decodeWhole(r io.Reader) (*SnapshotFile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f SnapshotFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// encodedTimeline is a snapshot file holding one Synthetic(routers,
// prefixes, k) per given loop count k, a second apart.
func encodedTimeline(t testing.TB, routers, prefixes int, loops ...int) []byte {
	t.Helper()
	return encode(t, syntheticFile(routers, prefixes, loops...))
}

// The Reader decodes a router once for as long as its bytes repeat, and
// hands out the same tables.
func TestReaderSharesRepeatedRouters(t *testing.T) {
	const routers = 20
	rd := NewReader(bytes.NewReader(encodedTimeline(t, routers, 42, 2, 2, 3)))
	var snaps []*Snapshot
	if err := rd.Each(func(s *Snapshot) error { snaps = append(snaps, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || rd.Network() != "synthetic" {
		t.Fatalf("read %d snapshots of %q", len(snaps), rd.Network())
	}
	shared := func(a, b *RouterFIB) bool { return &a.Routes[0] == &b.Routes[0] }
	want := routers
	for r := 0; r < routers; r++ {
		if !shared(&snaps[0].Routers[r], &snaps[1].Routers[r]) {
			t.Errorf("router %d decoded again although its bytes repeat", r)
		}
		same := sameTable(&snaps[1].Routers[r], &snaps[2].Routers[r])
		if !same {
			want++
		}
		if shared(&snaps[1].Routers[r], &snaps[2].Routers[r]) != same {
			t.Errorf("router %d: tables equal = %v, shared = %v", r, same, !same)
		}
	}
	if want == routers {
		t.Fatal("no table changed between loop counts 2 and 3")
	}
	if rd.decoded != want {
		t.Errorf("decoded %d routers, want %d", rd.decoded, want)
	}
}

// The Reader hands encoding/json the first snapshot's routers and then
// only the routers whose bytes changed, besides keys and scalars.
func TestReaderScansOnlyChangedBytes(t *testing.T) {
	loops := []int{2, 2, 2, 3, 3, 2}
	file := encodedTimeline(t, 40, 400, loops...)
	var doc struct {
		Snapshots []struct{ Routers []json.RawMessage }
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	first, changed := 0, 0
	for i, s := range doc.Snapshots {
		for r, raw := range s.Routers {
			switch {
			case i == 0:
				first += len(raw)
			case !bytes.Equal(raw, doc.Snapshots[i-1].Routers[r]):
				changed += len(raw)
			}
		}
	}
	if changed == 0 {
		t.Fatal("no router's bytes changed")
	}
	rd := NewReader(bytes.NewReader(file))
	if err := rd.Each(func(*Snapshot) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if extra := rd.decodedBytes - first - changed; extra < 0 || extra > 64*len(loops) {
		t.Errorf("encoding/json read %d bytes; routers first %d + changed %d, keys and scalars %d",
			rd.decodedBytes, first, changed, extra)
	}
}

// windowEdgeFiles are snapshot files whose values meet the edges of the
// Reader's window: outgrowing it, or ending at or just past its first
// refill; and repeats that the bytes after them must still frame.
// They also seed FuzzReadTimeline.
func windowEdgeFiles() map[string]string {
	// at fills the %s in doc so that the value ending v ends end bytes
	// into the file.
	at := func(doc, v string, end int) string {
		pad := end - strings.Index(fmt.Sprintf(doc, ""), v) - len(v)
		return fmt.Sprintf(doc, strings.Repeat("p", pad))
	}
	big := `{"name":"` + strings.Repeat("r", window) + `"}`
	taken := `{"version":1,"snapshots":[{"routers":[{"name":"%s"}],"takenNs":123}]}`
	return map[string]string{
		"router bigger than the window": `{"version":1,"snapshots":[{"takenNs":1,"routers":[` + big + `,{"name":"b"}]},` +
			`{"takenNs":2,"routers":[` + big + `,{"name":"c"}]}]}`,
		"takenNs ends at a refill": at(taken, `"takenNs":123`, window),
		"takenNs cut by a refill":  at(taken, `"takenNs":123`, window+1),
		"version ends at a refill": at(`{"snapshots":[{"routers":[{"name":"%s"}]}],"version":1}`, `"version":1`, window),
		"version cut by a refill":  at(`{"snapshots":[{"routers":[{"name":"%s"}]}],"version":10}`, `"version":10`, window+1),
		"repeated null routers":    `{"version":1,"snapshots":[{"takenNs":1,"routers":[null,null]},{"takenNs":2,"routers":[null ,null]},{"takenNs":3,"routers":[null]}]}`,
		"repeat then garbage":      `{"version":1,"snapshots":[{"takenNs":1,"routers":[{"name":"a"}]},{"takenNs":2,"routers":[{"name":"a"}x]}]}`,
		"repeat in other whitespace": `{"version":1,"snapshots":[{"takenNs":1,"routers":[{"name":"a"},{"name":"b"}]},` +
			"{\"takenNs\":2,\"routers\":[ \n\t{\"name\":\"a\"}\r\n , {\"name\":\"b\"} ]}]}",
	}
}

// Values at the window's edges read the same whatever the Read sizes,
// and as encoding/json reads the whole document.
func TestReaderWindowEdges(t *testing.T) {
	for name, in := range windowEdgeFiles() {
		want, wantErr := decodeWhole(strings.NewReader(in))
		for how, src := range map[string]io.Reader{
			"one read":     strings.NewReader(in),
			"byte by byte": iotest.OneByteReader(strings.NewReader(in)),
			"half reads":   iotest.HalfReader(strings.NewReader(in)),
		} {
			got, err := Decode(src)
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
				t.Errorf("%s, %s: read as another value (%v) than encoding/json's (%v)", name, how, err, wantErr)
			}
		}
	}
}

// FuzzReadTimeline holds the streaming Reader against decodeWhole: it
// accepts nothing the reference refuses; what the reference accepts it
// either decodes to the same value or refuses for one of the three
// documented reasons; and it reads the same through one-byte Reads.
func FuzzReadTimeline(f *testing.F) {
	for _, in := range badSnapshotFiles {
		f.Add([]byte(in))
	}
	for _, in := range windowEdgeFiles() {
		f.Add([]byte(in))
	}
	f.Add(encodedTimeline(f, 20, 40, 2, 4))
	var sample bytes.Buffer
	if err := sampleFile().Encode(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"snapshots":[null,{"routers":null,"takenNs":2},{"takenNs":2,"routers":[null,{"name":"a","routes":null}]}],"network":null,"version":1}`))
	f.Add([]byte(`{"version":1,"snapshots":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		want, refErr := decodeWhole(bytes.NewReader(data))
		switch {
		case refErr != nil:
			if err == nil {
				t.Fatalf("accepted what the reference refuses (%v): %+v", refErr, got)
			}
		case err != nil:
			if !errors.Is(err, errTrailingData) && !errors.Is(err, errDuplicateKey) && !errors.Is(err, errUnknownKey) {
				t.Fatalf("refused what the reference accepts: %v", err)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("decoded\n%+v\nreference\n%+v", got, want)
		}

		slow, slowErr := Decode(iotest.OneByteReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(got, slow) || (err == nil) != (slowErr == nil) ||
			(err != nil && err.Error() != slowErr.Error()) {
			t.Fatalf("one Read: %+v, %v\nbyte by byte: %+v, %v", got, err, slow, slowErr)
		}
	})
}
