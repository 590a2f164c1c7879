package trace

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBorrowAllocationBudget: once the window is warm, a borrowed read
// allocates nothing per record, for each format and for a tail.
func TestBorrowAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n, warm = 50_000, 1_000
	measure := func(name string, borrow func() (Record, error)) {
		t.Helper()
		var warmed, end runtime.MemStats
		for i := 0; i < n; i++ {
			if i == warm {
				runtime.ReadMemStats(&warmed)
			}
			if _, err := borrow(); err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
		}
		runtime.ReadMemStats(&end)
		allocs := float64(end.Mallocs-warmed.Mallocs) / (n - warm)
		size := float64(end.TotalAlloc-warmed.TotalAlloc) / (n - warm)
		t.Logf("%s: %.4f allocs and %.2f B per record once warm", name, allocs, size)
		if allocs > 0.001 || size > 1 {
			t.Errorf("%s: borrowing costs %.4f allocs and %.2f B per record, budget 0.001 and 1", name, allocs, size)
		}
	}
	for _, f := range []Format{FormatNative, FormatPcap, FormatERF} {
		data, _ := encodeTrace(t, f, randomRecords(rand.New(rand.NewSource(7)), f, n))
		r, err := newReader(newWindow(bytes.NewReader(data)), f)
		if err != nil {
			t.Fatal(err)
		}
		measure(f.String(), r.Borrow)
	}

	path := filepath.Join(t.TempDir(), "backlog.lspt")
	tw := newTailTestWriter(t, path)
	tw.appendMany(t, 0, n)
	tw.close(t)
	tr, err := OpenTail(path, TailOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	measure("tail", func() (Record, error) { return tr.Borrow(context.Background()) })
}

// FuzzBorrowMatchesNext: on any bytes, in any format, gzipped or not,
// strict or salvaging, borrowing and copying each record at delivery
// reads exactly what Next reads and ends on the same error.
func FuzzBorrowMatchesNext(f *testing.F) {
	for _, format := range []Format{FormatNative, FormatPcap, FormatERF} {
		data, _ := encodeTrace(f, format, randomRecords(rand.New(rand.NewSource(8)), format, 20))
		f.Add(int(format), false, data)
		f.Add(int(format), true, data[:len(data)-5])
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(data)
		zw.Close()
		f.Add(int(format), false, gz.Bytes())
	}
	f.Add(int(FormatAuto), true, bytes.Repeat([]byte{0x01}, 64))
	f.Fuzz(func(t *testing.T, format int, salvage bool, data []byte) {
		opts := OpenOptions{Format: Format(format % 4), Salvage: salvage}
		read := func(borrow bool) ([]Record, error) {
			src, _, err := OpenStream(bytes.NewReader(data), opts)
			if err != nil {
				return nil, err
			}
			next := src.Next
			if borrow {
				next = src.(Borrower).Borrow
			}
			var recs []Record
			for len(recs) < 10_000 {
				rec, err := next()
				if err != nil {
					return recs, err
				}
				if cap(rec.Data) != len(rec.Data) {
					t.Fatalf("record %d: cap(Data) %d != len %d", len(recs), cap(rec.Data), len(rec.Data))
				}
				rec.Data = bytes.Clone(rec.Data)
				recs = append(recs, rec)
			}
			return recs, nil
		}
		want, wantErr := read(false)
		got, gotErr := read(true)
		if !sameRecords(got, want) {
			t.Fatalf("Borrow read %d records, Next %d, or they differ", len(got), len(want))
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && (gotErr.Error() != wantErr.Error() ||
			errors.Is(gotErr, io.EOF) != errors.Is(wantErr, io.EOF)) {
			t.Fatalf("Borrow ended on %v, Next on %v", gotErr, wantErr)
		}
	})
}
