package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Tests of the three reading policies (strict, salvage, tail) against
// each other and against the input-rule table in codec.go.

// strictAll reads data with the strict policy.
func strictAll(data []byte, f Format) ([]Record, error) {
	r, err := newReader(newWindow(bytes.NewReader(data)), f)
	if err != nil {
		return nil, err
	}
	return ReadAll(r)
}

// tailAll reads a file holding data with the tail policy until Next
// fails; a 1 ns idle timeout makes "not yet" return at once.
func tailAll(t testing.TB, data []byte) ([]Record, *TailReader, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tail.lspt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTail(path, TailOptions{Poll: time.Millisecond, IdleTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	var recs []Record
	for {
		rec, err := tr.Next(context.Background())
		if err != nil {
			return recs, tr, err
		}
		recs = append(recs, rec)
	}
}

// ruleRecords is the four-record trace the rule table damages: record
// 1 is the victim, and carries 44 captured bytes (encodeTrace's snaplen
// is 48) so that lowering the file's snaplen to 42 makes it alone
// exceed it.
func ruleRecords() []Record {
	recs := make([]Record, 4)
	for i := range recs {
		data := make([]byte, 40)
		if i == 1 {
			data = make([]byte, 44)
		}
		data[0] = 0x45
		data[1] = byte(i)
		recs[i] = Record{Time: time.Duration(i+1) * 10 * time.Millisecond, WireLen: 100, Data: data}
	}
	return recs
}

// setWireLen overwrites the wire-length field of the record at off.
func setWireLen(data []byte, f Format, off int64, wireLen int) {
	switch f {
	case formatNative:
		binary.BigEndian.PutUint16(data[off+8:], uint16(wireLen))
	case formatPcap:
		binary.LittleEndian.PutUint32(data[off+12:], uint32(wireLen))
	case FormatERF:
		binary.BigEndian.PutUint16(data[off+14:], uint16(wireLen+hdlcHeaderLen))
	}
}

// How a policy run ended.
const (
	endEOF        = "eof"        // clean end of input
	endUnexpected = "unexpected" // wraps io.ErrUnexpectedEOF
	endError      = "error"      // a permanent decode error
	endIdle       = "idle"       // tail: still waiting
)

func endOf(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return endEOF
	case errors.Is(err, io.ErrUnexpectedEOF):
		return endUnexpected
	case errors.Is(err, ErrTailIdle):
		return endIdle
	}
	return endError
}

// outcome is one cell of the rule table: how many records come out,
// how the run ends, the victim's WireLen when it is delivered, and for
// salvage whether a corrupt region or a truncated tail was recorded.
type outcome struct {
	records   int
	end       string
	victimLen int
	corrupt   bool
	truncTail bool
}

func TestInputRulePolicies(t *testing.T) {
	all := []Format{formatNative, formatPcap, FormatERF}
	pass := outcome{records: 4, end: endEOF, victimLen: 100}
	clamp := outcome{records: 4, end: endEOF, victimLen: 44}
	corrupt := outcome{records: 3, end: endEOF, corrupt: true}
	shrinkWireLen := func(f Format, data []byte, offs []int64) []byte {
		setWireLen(data, f, offs[1], 10)
		return data
	}
	rules := []struct {
		name    string
		formats []Format
		damage  func(f Format, data []byte, offs []int64) []byte
		strict  outcome
		salvage outcome
		tail    outcome
	}{
		{
			name: "backwards timestamp", formats: all,
			strict:  pass,
			salvage: corrupt,
			tail:    outcome{records: 1, end: endError},
		},
		{
			name: "caplen > wirelen", formats: []Format{formatNative, formatPcap},
			damage:  shrinkWireLen,
			strict:  clamp,
			salvage: corrupt,
			tail:    clamp,
		},
		{
			name: "caplen > wirelen (ERF: routine, DAG cards pad rlen)", formats: []Format{FormatERF},
			damage:  shrinkWireLen,
			strict:  clamp,
			salvage: clamp,
		},
		{
			name: "wirelen = 0", formats: all,
			damage: func(f Format, data []byte, offs []int64) []byte {
				setWireLen(data, f, offs[1], 0)
				return data
			},
			strict:  clamp,
			salvage: corrupt,
			tail:    clamp,
		},
		{
			name: "caplen > snaplen (native)", formats: []Format{formatNative},
			damage: func(f Format, data []byte, offs []int64) []byte {
				binary.BigEndian.PutUint16(data[6:], 42)
				return data
			},
			strict:  outcome{records: 1, end: endError},
			salvage: corrupt,
			tail:    outcome{records: 1, end: endError},
		},
		{
			name: "caplen > snaplen (pcap: advisory)", formats: []Format{formatPcap},
			damage: func(f Format, data []byte, offs []int64) []byte {
				binary.LittleEndian.PutUint32(data[16:], 42)
				return data
			},
			strict:  pass,
			salvage: corrupt,
		},
		{
			name: "pcap caplen > 1 MiB", formats: []Format{formatPcap},
			damage: func(f Format, data []byte, offs []int64) []byte {
				binary.LittleEndian.PutUint32(data[offs[1]+8:], maxPcapCapLen+1)
				binary.LittleEndian.PutUint32(data[offs[1]+12:], maxPcapCapLen+1)
				return data
			},
			strict:  outcome{records: 1, end: endError},
			salvage: corrupt,
		},
		{
			name: "unknown ERF type", formats: []Format{FormatERF},
			damage: func(f Format, data []byte, offs []int64) []byte {
				data[offs[1]+8] = 2 // TYPE_ETH
				return data
			},
			strict:  outcome{records: 1, end: endError},
			salvage: corrupt,
		},
		{
			name: "short ERF rlen", formats: []Format{FormatERF},
			damage: func(f Format, data []byte, offs []int64) []byte {
				binary.BigEndian.PutUint16(data[offs[1]+10:], erfHeaderLen+hdlcHeaderLen-1)
				return data
			},
			strict:  outcome{records: 1, end: endError},
			salvage: corrupt,
		},
		{
			name: "EOF mid-header", formats: all,
			damage: func(f Format, data []byte, offs []int64) []byte {
				return data[:offs[3]+5]
			},
			strict:  outcome{records: 3, end: endUnexpected, victimLen: 100},
			salvage: outcome{records: 3, end: endEOF, victimLen: 100, truncTail: true},
			tail:    outcome{records: 3, end: endIdle, victimLen: 100},
		},
		{
			name: "EOF mid-body", formats: all,
			damage: func(f Format, data []byte, offs []int64) []byte {
				return data[:offs[3]+pcapRecHdrLen+7]
			},
			strict:  outcome{records: 3, end: endUnexpected, victimLen: 100},
			salvage: outcome{records: 3, end: endEOF, victimLen: 100, truncTail: true},
			tail:    outcome{records: 3, end: endIdle, victimLen: 100},
		},
	}

	check := func(t *testing.T, policy string, recs []Record, err error, want outcome) {
		t.Helper()
		if len(recs) != want.records || endOf(err) != want.end {
			t.Errorf("%s: %d records ending %q (%v), want %d ending %q",
				policy, len(recs), endOf(err), err, want.records, want.end)
			return
		}
		if want.victimLen > 0 {
			if got := recs[1]; got.Data[1] != 1 || got.WireLen != want.victimLen {
				t.Errorf("%s: victim delivered as record %d with WireLen %d, want WireLen %d",
					policy, got.Data[1], got.WireLen, want.victimLen)
			}
		}
		for i, r := range recs { // Validate's length rule holds for whatever is delivered
			if len(r.Data) > r.WireLen {
				t.Errorf("%s: record %d delivered with caplen %d > wirelen %d", policy, i, len(r.Data), r.WireLen)
			}
		}
	}

	for _, rule := range rules {
		for _, f := range rule.formats {
			t.Run(rule.name+"/"+f.String(), func(t *testing.T) {
				recs := ruleRecords()
				if rule.damage == nil { // backwards timestamp: writers do not order records
					recs[1].Time = 5 * time.Millisecond
				}
				data, offs := encodeTrace(t, f, recs)
				if rule.damage != nil {
					data = rule.damage(f, data, offs)
				}

				got, err := strictAll(data, f)
				check(t, "strict", got, err, rule.strict)

				got, stats, err := salvageAll(t, data, salvageOptions{Format: f})
				check(t, "salvage", got, err, rule.salvage)
				if (stats.Errors > 0) != rule.salvage.corrupt || stats.TruncatedTail != rule.salvage.truncTail {
					t.Errorf("salvage: stats %+v, want corrupt region %v, truncated tail %v",
						stats, rule.salvage.corrupt, rule.salvage.truncTail)
				}

				if f == formatNative {
					want := rule.tail
					if want.end == endEOF { // a tail never ends; it runs out of file
						want.end = endIdle
					}
					got, _, err := tailAll(t, data)
					check(t, "tail", got, err, want)
				}
			})
		}
	}
}

// TestSalvageWindowMovesLittle is the regression test for the salvage
// reader that compacted its whole 2 MiB window once per record after
// the first window: over a clean 6 MiB file the bytes moved inside the
// window must stay below twice the file size (they are in fact a few
// partial records per 64 KiB refill; the old reader moved the file
// size times 2 MiB / record size).
func TestSalvageWindowMovesLittle(t *testing.T) {
	const n = 6 << 20 / (nativeRecHdrLen + 40)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Link: "big", SnapLen: 40, Start: time.Unix(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 40)
	for i := 0; i < n; i++ {
		if err := w.Write(Record{Time: time.Duration(i) * time.Microsecond, WireLen: 60, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := newSalvageReader(newWindow(bytes.NewReader(buf.Bytes())), salvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(s)
	if err != nil || len(recs) != n {
		t.Fatalf("salvaged %d of %d records: %v", len(recs), n, err)
	}
	if limit := 2 * int64(buf.Len()); s.w.moved > limit {
		t.Errorf("window moved %d bytes reading a %d-byte file, want <= %d", s.w.moved, buf.Len(), limit)
	}
	if len(s.w.buf) != windowMin {
		t.Errorf("window grew to %d bytes on 52-byte records", len(s.w.buf))
	}
}

// compress/flate wraps any source that is not an io.ByteReader in a
// 4 KiB bufio.Reader of its own: a second read buffer, and a second
// copy of every compressed byte, behind the window's back.
var _ io.ByteReader = (*window)(nil)

// randomRecords builds n valid records: caplens 20-40, increasing
// times, and (for ERF) occasional loss counters.
func randomRecords(rng *rand.Rand, f Format, n int) []Record {
	recs := make([]Record, n)
	var at time.Duration
	for i := range recs {
		at += time.Duration(1+rng.Intn(5000)) * time.Microsecond
		data := make([]byte, 20+rng.Intn(21))
		rng.Read(data)
		recs[i] = Record{Time: at, WireLen: len(data) + rng.Intn(1400), Data: data}
		if f == FormatERF && rng.Intn(4) == 0 {
			recs[i].Lost = 1 + rng.Intn(100)
		}
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].WireLen != b[i].WireLen || a[i].Lost != b[i].Lost ||
			!bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// checkPrefix holds strict and salvage to the prefix contract: exactly
// the records wholly inside data[:cut], then EOF (strict:
// ErrUnexpectedEOF, salvage: TruncatedTail) iff the cut is inside a
// record. offs are the record boundaries, file end included.
func checkPrefix(t *testing.T, f Format, data []byte, offs []int64, full []Record, cut int64) {
	t.Helper()
	whole, boundary := 0, offs[0]
	for whole < len(offs)-1 && offs[whole+1] <= cut {
		whole++
		boundary = offs[whole]
	}
	got, err := strictAll(data[:cut], f)
	if cut < offs[0] {
		if err == nil {
			t.Fatalf("cut %d: strict accepted a truncated file header", cut)
		}
		if _, err := newSalvageReader(newWindow(bytes.NewReader(data[:cut])), salvageOptions{Format: f}); err == nil {
			t.Fatalf("cut %d: salvage accepted a truncated file header", cut)
		}
		return
	}
	wantEnd := endEOF
	if cut != boundary {
		wantEnd = endUnexpected
	}
	if !sameRecords(got, full[:whole]) || endOf(err) != wantEnd {
		t.Fatalf("cut %d: strict gave %d records ending %q (%v), want %d ending %q",
			cut, len(got), endOf(err), err, whole, wantEnd)
	}
	got, stats, err := salvageAll(t, data[:cut], salvageOptions{Format: f})
	want := DecodeStats{Records: whole, BytesSkipped: cut - boundary, TruncatedTail: cut != boundary}
	for _, r := range got {
		if r.Lost > 0 {
			want.LossEvents++
			want.LostRecords += r.Lost
		}
	}
	if err != nil || !sameRecords(got, full[:whole]) || stats != want {
		t.Fatalf("cut %d: salvage gave %d records, stats %+v, err %v; want %d records, stats %+v",
			cut, len(got), stats, err, whole, want)
	}
}

// TestPoliciesAgreeEveryPrefix: on intact input the three policies are
// the same reader, whole-file and at every byte prefix.
func TestPoliciesAgreeEveryPrefix(t *testing.T) {
	for _, f := range allFormats() {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			recs := randomRecords(rng, f, 24)
			data, offs := encodeTrace(t, f, recs)
			offs = append(offs, int64(len(data)))

			full, err := strictAll(data, f)
			if err != nil || len(full) != len(recs) {
				t.Fatalf("%v seed %d: strict read %d of %d records: %v", f, seed, len(full), len(recs), err)
			}
			for cut := int64(0); cut <= int64(len(data)); cut++ {
				checkPrefix(t, f, data, offs, full, cut)
			}
			if f == formatNative {
				tailByteByByte(t, data, offs, full)
			}
		}
	}
}

// TestPoliciesAgreeLargeRecord repeats the prefix contract around a
// pcap record at the 1 MiB caplen bound, which forces the window to
// grow from 64 KiB to its maximum; cutting at every one of a million
// bytes would be quadratic, so the cuts bracket the record's edges.
func TestPoliciesAgreeLargeRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := randomRecords(rng, formatPcap, 8)
	big := make([]byte, maxPcapCapLen)
	rng.Read(big)
	recs[3].Data, recs[3].WireLen = big, len(big)

	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, Meta{SnapLen: maxPcapCapLen, Start: time.Unix(1_000_000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{pcapFileHdrLen}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, offs[len(offs)-1]+pcapRecHdrLen+int64(len(r.Data)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	full, err := strictAll(data, formatPcap)
	if err != nil || len(full) != len(recs) || !bytes.Equal(full[3].Data, big) {
		t.Fatalf("strict read %d of %d records: %v", len(full), len(recs), err)
	}
	for _, edge := range []int64{offs[3], offs[3] + windowMin, offs[4], int64(len(data))} {
		for cut := edge - 20; cut <= edge+20 && cut <= int64(len(data)); cut++ {
			checkPrefix(t, formatPcap, data, offs, full, cut)
		}
	}
}

// tailByteByByte grows a file one byte at a time under a TailReader:
// each record is delivered exactly once, at the byte that completes
// it, with Offset() on the record boundary.
func tailByteByByte(t *testing.T, data []byte, offs []int64, full []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grow.lspt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := OpenTail(path, TailOptions{Poll: time.Millisecond, IdleTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	next := 0 // index of the next record due
	for i := range data {
		if _, err := f.Write(data[i : i+1]); err != nil {
			t.Fatal(err)
		}
		written := int64(i + 1)
		rec, err := tr.Next(ctx)
		if due := next < len(full) && offs[next+1] == written; !due {
			if !errors.Is(err, ErrTailIdle) {
				t.Fatalf("byte %d: Next = %v, want ErrTailIdle (no record ends here)", written, err)
			}
			continue
		}
		if err != nil || !sameRecords([]Record{rec}, full[next:next+1]) {
			t.Fatalf("byte %d: record %d not delivered as written: %+v, %v", written, next, rec, err)
		}
		next++
		if tr.Offset() != written || tr.Records() != int64(next) || tr.Size() != written {
			t.Fatalf("byte %d: Offset %d Records %d Size %d after record %d",
				written, tr.Offset(), tr.Records(), tr.Size(), next-1)
		}
		if _, err := tr.Next(ctx); !errors.Is(err, ErrTailIdle) {
			t.Fatalf("byte %d: second Next = %v, want ErrTailIdle", written, err)
		}
	}
	if next != len(full) {
		t.Fatalf("tail delivered %d of %d records", next, len(full))
	}
}

// FuzzTailReader: arbitrary bytes as a tailed file. The tail policy
// must not panic, must never deliver a record beyond the snaplen or
// claim an offset beyond the file, and must deliver what the strict
// reader delivers from the same bytes up to the first record that
// goes back in time (which only the tail policy refuses).
func FuzzTailReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Link: "seed", SnapLen: 48, Start: time.Unix(1, 0)})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range testRecords(4) {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(data)
	f.Add(data[:len(data)-7])
	back := append([]byte(nil), data...)
	copy(back[len(back)-52:], make([]byte, 8)) // last record's time := 0
	f.Add(back)
	f.Add([]byte("LSPT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, tr, tailErr := tailAll(t, data)
		if tr.Offset() > int64(len(data)) || tr.Size() > int64(len(data)) {
			t.Fatalf("offset %d, size %d on a %d-byte file", tr.Offset(), tr.Size(), len(data))
		}
		for i, rec := range got {
			if len(rec.Data) > tr.Meta().SnapLen {
				t.Fatalf("record %d: caplen %d beyond snaplen %d", i, len(rec.Data), tr.Meta().SnapLen)
			}
		}

		var want []Record
		strictErr := io.ErrUnexpectedEOF // a file header still being written
		if r, err := newReader(newWindow(bytes.NewReader(data)), formatNative); err == nil {
			want, strictErr = ReadAll(r)
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			strictErr = err
		}
		wantEnd := endIdle
		if endOf(strictErr) == endError {
			wantEnd = endError
		}
		var prev time.Duration
		for i, rec := range want {
			if rec.Time < prev {
				want, wantEnd = want[:i], endError
				break
			}
			prev = rec.Time
		}
		if !sameRecords(got, want) || endOf(tailErr) != wantEnd {
			t.Fatalf("tail gave %d records ending %q (%v); strict gives %d ending %v, so want %q",
				len(got), endOf(tailErr), tailErr, len(want), strictErr, wantEnd)
		}
	})
}
