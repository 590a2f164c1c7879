package trace

import (
	"bytes"
	"crypto/sha256"
	"hash"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// Tests of the owning reads' slabs: records cut from a shared
// allocation must behave like records that own theirs.

// chunkReader hands out at most n bytes per Read, so window refills end
// mid-record at ever-different offsets and compaction runs often.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// repeatReader yields rec n times without holding n copies of it.
type repeatReader struct {
	rec  []byte
	left int // bytes still to come
}

func (r *repeatReader) Read(p []byte) (n int, err error) {
	for n < len(p) && r.left > 0 {
		from := (len(r.rec) - r.left%len(r.rec)) % len(r.rec)
		m := copy(p[n:], r.rec[from:])
		n, r.left = n+m, r.left-m
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// TestReadAllocationBudget: an owning read (File.Next) costs a slab
// every few hundred records and nothing else — no allocation per
// record, and not many more bytes than the captures themselves (here
// 30 on average).
func TestReadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 50_000
	for _, f := range []Format{FormatNative, FormatPcap, FormatERF} {
		data, _ := encodeTrace(t, f, randomRecords(rand.New(rand.NewSource(5)), f, n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, _, err := OpenStream(bytes.NewReader(data), OpenOptions{Format: f})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for ; err == nil; got++ {
			_, err = src.Next()
		}
		runtime.ReadMemStats(&after)
		if err != io.EOF || got-1 != n {
			t.Fatalf("%v: read %d of %d records: %v", f, got-1, n, err)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / n
		size := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%v: %.4f allocs and %.1f B per record", f, allocs, size)
		if allocs > 0.01 || size > 48 {
			t.Errorf("%v: reading costs %.4f allocs and %.1f B per record, budget 0.01 and 48", f, allocs, size)
		}
	}
}

// teeSource hashes each record's Data as its source lends it.
type teeSource struct {
	Source
	h hash.Hash
}

func (s teeSource) Borrow(rec *Record) error {
	err := s.Source.Borrow(rec)
	if err == nil {
		s.h.Write(rec.Data)
	}
	return err
}

// TestRecordsSurviveTheReader: what an owning read promises of a
// delivered record — nothing overwrites it, whatever the reader does
// next — holds for records cut from slabs, through hundreds of slabs
// and window compactions, after the reader is gone, and when a consumer
// appends to one record's Data right beside the next one's, for both
// owning reads, ReadAll and File.Next.
func TestRecordsSurviveTheReader(t *testing.T) {
	const n = 200_000
	reads := map[string]func(*File) ([]Record, error){
		"ReadAll": func(src *File) ([]Record, error) { return ReadAll(src) },
		"File.Next": func(src *File) ([]Record, error) {
			recs := make([]Record, 0, n)
			for {
				rec, err := src.Next()
				if err == io.EOF {
					return recs, nil
				}
				if err != nil {
					return recs, err
				}
				recs = append(recs, rec)
			}
		},
	}
	for _, f := range []Format{FormatNative, FormatPcap, FormatERF} {
		data, _ := encodeTrace(t, f, randomRecords(rand.New(rand.NewSource(6)), f, n))
		for name, read := range reads {
			r, err := newReader(newWindow(chunkReader{bytes.NewReader(data), 4093}), f)
			if err != nil {
				t.Fatal(err)
			}
			atDelivery := sha256.New()
			recs, err := read(MeterSource(teeSource{r, atDelivery}, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != n || r.w.moved == 0 {
				t.Fatalf("%v %s: %d of %d records, window moved %d bytes; want all, and compaction", f, name, len(recs), n, r.w.moved)
			}
			r = nil
			runtime.GC()
			afterwards := sha256.New()
			for i := range recs {
				if cap(recs[i].Data) != len(recs[i].Data) {
					t.Fatalf("%v %s: record %d: cap(Data) %d != len %d", f, name, i, cap(recs[i].Data), len(recs[i].Data))
				}
				grown := append(recs[i].Data, 0xff)
				grown[0] ^= 0xff // a copy: neither this record nor the next may see it
				afterwards.Write(recs[i].Data)
			}
			if !bytes.Equal(atDelivery.Sum(nil), afterwards.Sum(nil)) {
				t.Errorf("%v %s: records changed after delivery", f, name)
			}
		}
	}
}

// TestLargeCaptureLeavesTheSlab: a capture over a quarter slab gets an
// allocation of its own, and the records around it go on filling the
// slab they were filling.
func TestLargeCaptureLeavesTheSlab(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, Meta{SnapLen: maxPcapCapLen, Start: time.Unix(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	small, large := bytes.Repeat([]byte{1}, 40), bytes.Repeat([]byte{2}, maxPcapCapLen)
	for i, d := range [][]byte{small, large, small} {
		if err := w.Write(Record{Time: time.Duration(i), WireLen: len(d), Data: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenStream(&buf, OpenOptions{Format: FormatPcap})
	if err != nil {
		t.Fatal(err)
	}
	var got [3]Record
	for i := range got {
		if got[i], err = r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got[0].Data, small) || !bytes.Equal(got[1].Data, large) || !bytes.Equal(got[2].Data, small) {
		t.Fatal("records do not read back as written")
	}
	if cap(got[1].Data) != maxPcapCapLen {
		t.Errorf("large capture has cap %d, want its own %d bytes", cap(got[1].Data), maxPcapCapLen)
	}
	if uintptr(unsafe.Pointer(&got[0].Data[0]))+40 != uintptr(unsafe.Pointer(&got[2].Data[0])) {
		t.Error("the record after the large capture does not follow the one before it in the slab")
	}
	if len(r.slab) != slabLen-80 {
		t.Errorf("slab has %d bytes left after two 40-byte records, want %d", len(r.slab), slabLen-80)
	}
}

// TestOneRecordPinsOneSlab: keeping one record out of a million keeps
// its slab alive, not the file.
func TestOneRecordPinsOneSlab(t *testing.T) {
	const n = 1_000_000
	var hdr bytes.Buffer
	w, err := NewWriter(&hdr, Meta{Link: "pin", SnapLen: 40, Start: time.Unix(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	w.w.Reset(&one)
	if err := w.Write(Record{Time: time.Second, WireLen: 60, Data: bytes.Repeat([]byte{7}, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, _, err := OpenStream(io.MultiReader(&hdr, &repeatReader{rec: one.Bytes(), left: n * one.Len()}), OpenOptions{Format: FormatNative})
	if err != nil {
		t.Fatal(err)
	}
	var kept Record
	got := 0
	for ; ; got++ {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got == n/2 {
			kept = rec
		}
	}
	r = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got != n || !bytes.Equal(kept.Data, bytes.Repeat([]byte{7}, 40)) {
		t.Fatalf("read %d of %d records, kept %x", got, n, kept.Data)
	}
	if held := int64(after.HeapInuse) - int64(before.HeapInuse); held > 1<<20 {
		t.Errorf("one kept record holds %d KiB of heap, want one %d KiB slab", held>>10, slabLen>>10)
	}
	runtime.KeepAlive(kept)
}
