package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// FuzzNativeReader: arbitrary bytes through the native reader must
// never panic or allocate absurdly; valid files round-trip.
func FuzzNativeReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Link: "seed", SnapLen: 40, Start: time.Unix(1, 0)})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Write(Record{Time: time.Millisecond, WireLen: 100, Data: []byte{1, 2, 3, 4}}); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("LSPT"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newReader(newWindow(bytes.NewReader(data)), FormatNative)
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			rec, err := borrow(r)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return
			}
			if len(rec.Data) > r.Meta().SnapLen {
				t.Fatalf("caplen %d beyond snaplen %d", len(rec.Data), r.Meta().SnapLen)
			}
		}
	})
}

// FuzzPcapReader: same robustness contract for the pcap parser.
func FuzzPcapReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, Meta{SnapLen: 40, Start: time.Unix(1, 0)})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Write(Record{Time: 0, WireLen: 60, Data: []byte{0x45, 0, 0, 1}}); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:24])
	f.Add([]byte{0xa1, 0xb2, 0xc3, 0xd4})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newReader(newWindow(bytes.NewReader(data)), FormatPcap)
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			if _, err := borrow(r); err != nil {
				return
			}
		}
	})
}

// FuzzERFReader: same robustness contract for the ERF parser, which
// has no file header to reject garbage early — every input reaches
// the record loop.
func FuzzERFReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewERFWriter(&buf, Meta{SnapLen: 40, Start: time.Unix(1, 0)})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Write(Record{Time: 0, WireLen: 60, Data: []byte{0x45, 0, 0, 1}, Lost: 2}); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:erfHeaderLen])
	f.Add(bytes.Repeat([]byte{0x01}, 48))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := newReader(newWindow(bytes.NewReader(data)), FormatERF)
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			rec, err := borrow(r)
			if err != nil {
				break
			}
			// The loss counter is a 16-bit field on disk.
			if rec.Lost < 0 || rec.Lost > 0xffff {
				t.Fatalf("record %d: loss counter %d outside the on-disk field", i, rec.Lost)
			}
		}
	})
}

// FuzzSalvageReader: the fault-tolerant reader exists to consume
// damaged bytes, so on arbitrary input it must never panic, never
// loop forever, and its statistics must stay consistent with what it
// returned.
func FuzzSalvageReader(f *testing.F) {
	for _, format := range []Format{FormatNative, FormatPcap, FormatERF} {
		var buf bytes.Buffer
		meta := Meta{Link: "seed", SnapLen: 40, Start: time.Unix(1, 0)}
		var w interface {
			Write(Record) error
			Flush() error
		}
		var err error
		switch format {
		case FormatNative:
			w, err = NewWriter(&buf, meta)
		case FormatPcap:
			w, err = NewPcapWriter(&buf, meta)
		case FormatERF:
			w, err = NewERFWriter(&buf, meta)
		}
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := w.Write(Record{
				Time:    time.Duration(i) * time.Millisecond,
				WireLen: 60, Data: []byte{0x45, 0, 0, byte(i)},
			}); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		f.Add(int(format), seed)
		if len(seed) > 30 {
			damaged := append([]byte(nil), seed...)
			damaged[len(damaged)/2] ^= 0xff
			f.Add(int(format), damaged[:len(damaged)-3])
		}
	}
	f.Add(int(FormatAuto), []byte{})
	f.Add(int(FormatAuto), bytes.Repeat([]byte{0x00}, 128))

	f.Fuzz(func(t *testing.T, format int, data []byte) {
		if format < int(FormatAuto) || format > int(FormatERF) {
			return
		}
		s, err := newSalvageReader(newWindow(bytes.NewReader(data)), salvageOptions{Format: Format(format)})
		if err != nil {
			return
		}
		n := 0
		for {
			_, err := borrow(s)
			if err != nil {
				break
			}
			n++
			if n > len(data) {
				t.Fatalf("returned %d records from %d bytes", n, len(data))
			}
		}
		st := s.stats
		if st.Records != n {
			t.Fatalf("stats say %d records, reader returned %d", st.Records, n)
		}
		if st.Salvaged > st.Records || st.Resyncs > st.Errors {
			t.Fatalf("inconsistent stats: %+v", st)
		}
		if st.BytesSkipped > int64(len(data)) {
			t.Fatalf("skipped %d of %d bytes", st.BytesSkipped, len(data))
		}
	})
}
