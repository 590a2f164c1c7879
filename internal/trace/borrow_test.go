package trace

import (
	"bytes"
	"compress/gzip"
	"context"
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
	measure := func(name string, borrow func(*Record) error) {
		t.Helper()
		var warmed, end runtime.MemStats
		var rec Record
		for i := 0; i < n; i++ {
			if i == warm {
				runtime.ReadMemStats(&warmed)
			}
			if err := borrow(&rec); err != nil {
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
	measure("tail", func(rec *Record) error { return tr.Borrow(context.Background(), rec) })
}

// FuzzBorrowMatchesReadAll: on any bytes, in any format, gzipped or
// not, strict or salvaging, borrowing and copying each record at
// delivery reads exactly what ReadAll keeps and ends on the same error.
func FuzzBorrowMatchesReadAll(f *testing.F) {
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
		open := func() *File {
			src, _, err := OpenStream(bytes.NewReader(data), opts)
			if err != nil {
				return nil
			}
			return src
		}
		src := open()
		if src == nil {
			return
		}
		want, wantErr := ReadAll(src)
		var got []Record
		var gotErr error
		for src = open(); gotErr == nil; {
			var rec Record
			if gotErr = src.Borrow(&rec); gotErr == nil {
				if cap(rec.Data) != len(rec.Data) {
					t.Fatalf("lent record %d: cap(Data) %d != len %d", len(got), cap(rec.Data), len(rec.Data))
				}
				rec.Data = bytes.Clone(rec.Data)
				got = append(got, rec)
			}
		}
		if gotErr == io.EOF {
			gotErr = nil // ReadAll ends on EOF with no error
		}
		for i, rec := range want {
			if cap(rec.Data) != len(rec.Data) {
				t.Fatalf("kept record %d: cap(Data) %d != len %d", i, cap(rec.Data), len(rec.Data))
			}
		}
		if !sameRecords(got, want) {
			t.Fatalf("Borrow read %d records, ReadAll %d, or they differ", len(got), len(want))
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("Borrow ended on %v, ReadAll on %v", gotErr, wantErr)
		}
	})
}

// borrow reads one record from src into a Record of its own.
func borrow(src Source) (Record, error) {
	var rec Record
	err := src.Borrow(&rec)
	return rec, err
}
