package fibscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
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
	f := &SnapshotFile{Network: "synthetic"}
	for i, k := range loops {
		snap, _ := Synthetic(routers, prefixes, k)
		snap.TakenNs = int64(i) * 1e9
		f.Snapshots = append(f.Snapshots, snap)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// FuzzReadTimeline holds the streaming Reader against decodeWhole: it
// accepts nothing the reference refuses; what the reference accepts it
// either decodes to the same value or refuses for one of the three
// documented reasons; and it reads the same through one-byte Reads.
func FuzzReadTimeline(f *testing.F) {
	for _, in := range badSnapshotFiles {
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
