package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// openLog opens a Log with no fsync and no injector, the way the tests
// below all want it.
func openLog(t *testing.T, path string) (*Log, int64) {
	t.Helper()
	l, torn, err := OpenLog(path, FsyncOff, nil, "")
	if err != nil {
		t.Fatalf("OpenLog(%s): %v", path, err)
	}
	return l, torn
}

// replayAll collects the lines Replay delivers; a line that is not
// valid JSON is rejected, like every real caller's decoder would.
func replayAll(t *testing.T, path string) (lines []string, skipped int) {
	t.Helper()
	skipped, err := Replay(path, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not json")
		}
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%s): %v", path, err)
	}
	return lines, skipped
}

// TestLogTornTailEveryByteBoundary is the crash-consistency sweep for
// every line file the system keeps: cut a multi-line log at every byte
// and prove OpenLog always succeeds, leaves the file empty or
// newline-terminated, moves exactly the partial bytes to the sidecar,
// and that a line appended afterwards replays intact next to every
// line that was complete before the cut.
func TestLogTornTailEveryByteBoundary(t *testing.T) {
	records := []string{`{"id":"a","n":1}`, `{"id":"b","nested":{"k":"v"}}`, `{"id":"c"}`}
	data := []byte(strings.Join(records, "\n") + "\n")
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	const added = `{"id":"appended"}`

	for cut := 0; cut <= len(data); cut++ {
		os.Remove(path + ".quarantine")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		keep := bytes.LastIndexByte(data[:cut], '\n') + 1 // bytes in complete lines
		l, torn := openLog(t, path)
		if want := int64(cut - keep); torn != want {
			t.Fatalf("cut=%d: torn = %d, want %d", cut, torn, want)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:keep]) {
			t.Fatalf("cut=%d: file after repair = %q, want %q", cut, got, data[:keep])
		}
		q, qerr := os.ReadFile(path + ".quarantine")
		if torn > 0 {
			if want := string(data[keep:cut]) + "\n"; qerr != nil || string(q) != want {
				t.Fatalf("cut=%d: sidecar = %q (%v), want %q", cut, q, qerr, want)
			}
		} else if qerr == nil {
			t.Fatalf("cut=%d: unexpected sidecar %q", cut, q)
		}
		if l.Size() != int64(keep) {
			t.Fatalf("cut=%d: Size = %d, want %d", cut, l.Size(), keep)
		}
		if err := l.Append([]byte(added + "\n")); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(strings.Split(strings.TrimSuffix(string(data[:keep]), "\n"), "\n"), added)
		if keep == 0 {
			want = []string{added}
		}
		lines, skipped := replayAll(t, path)
		if skipped != 0 || strings.Join(lines, "|") != strings.Join(want, "|") {
			t.Fatalf("cut=%d: replay = %q (%d skipped), want %q", cut, lines, skipped, want)
		}
	}
}

// TestAppendShortWriteRolledBack: a write that lands only part of a
// line (ENOSPC mid-line) must not leave a fragment for the retry to be
// glued onto. After the failed append the file holds what it held
// before; the retried line replays intact.
func TestAppendShortWriteRolledBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openLog(t, path)
	if err := l.Append([]byte(`{"id":"first"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	before := l.Size()

	l.write = func(f *os.File, p []byte) (int, error) {
		n, _ := f.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	line := []byte(`{"id":"retried","payload":"0123456789"}` + "\n")
	if err := l.Append(line); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write returned %v, want ENOSPC", err)
	}
	if l.Size() != before {
		t.Fatalf("Size after rolled-back write = %d, want %d", l.Size(), before)
	}
	l.write = (*os.File).Write
	if err := l.Append(line); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lines, skipped := replayAll(t, path)
	want := []string{`{"id":"first"}`, strings.TrimSuffix(string(line), "\n")}
	if skipped > 1 || strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Fatalf("replay = %q (%d skipped), want %q and at most one bad line", lines, skipped, want)
	}
}

// TestLogRotateAndReopen: Rotate retires the file and the next Append
// starts a fresh one; Append after Close reopens too.
func TestLogRotateAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "log.jsonl") // OpenLog creates the directory
	l, _ := openLog(t, path)
	if err := l.Append([]byte("{\"n\":1}\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(path + ".1700000000"); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size after rotate = %d, want 0", l.Size())
	}
	if err := l.Append([]byte("{\"n\":2}\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("{\"n\":3}\n")); err != nil {
		t.Fatalf("append after close did not reopen: %v", err)
	}
	l.Close()
	if lines, _ := replayAll(t, path+".1700000000"); strings.Join(lines, "|") != `{"n":1}` {
		t.Fatalf("rotated segment = %q", lines)
	}
	if lines, _ := replayAll(t, path); strings.Join(lines, "|") != `{"n":2}|{"n":3}` {
		t.Fatalf("live file = %q", lines)
	}
}

// TestReplayBadLinePolicy: an undecodable line, a line fn rejects and
// an over-long line each cost one skipped count; blank lines cost
// nothing; a long-but-legal line spanning several read buffers arrives
// whole; an unterminated final line is still offered; a missing file
// is an empty log.
func TestReplayBadLinePolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	big := `{"pad":"` + strings.Repeat("x", 200<<10) + `"}`
	var buf bytes.Buffer
	buf.WriteString(`{"id":"a"}` + "\n")
	buf.WriteString("not json\n")
	buf.WriteString("\n   \n")
	buf.WriteString(big + "\n")
	buf.Write(bytes.Repeat([]byte{0xfe}, 2<<20)) // 2 MiB of garbage, one line
	buf.WriteString("\n")
	buf.WriteString(`{"id":"reject-me"}` + "\n")
	buf.WriteString(`{"id":"tail"}`) // no newline
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	skipped, err := Replay(path, func(line []byte) error {
		if !json.Valid(line) || bytes.Contains(line, []byte("reject-me")) {
			return errors.New("rejected")
		}
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"id":"a"}`, big, `{"id":"tail"}`}
	if len(got) != len(want) {
		t.Fatalf("delivered %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %.40q…, want %.40q…", i, got[i], want[i])
		}
	}
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3 (garbage, over-long, rejected)", skipped)
	}
	if n, err := Replay(filepath.Join(t.TempDir(), "absent"), func([]byte) error { return nil }); n != 0 || err != nil {
		t.Errorf("missing file: skipped=%d err=%v, want 0, nil", n, err)
	}
}

// doc is a strictly decoded document for the Save/Load tests.
type doc struct {
	Version int      `json:"version"`
	Items   []string `json:"items"`
}

// loadDoc loads path the way every caller does: decode into a local,
// publish only on success.
func loadDoc(path string) (loaded *doc, quarantined bool, err error) {
	quarantined, err = Load(path, func(data []byte) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var d doc
		if err := dec.Decode(&d); err != nil {
			return err
		}
		if dec.More() || d.Version != 1 {
			return errors.New("trailing data or wrong version")
		}
		loaded = &d
		return nil
	})
	return loaded, quarantined, err
}

// TestSaveLoadDamagedEveryByte: truncate the saved document at every
// byte, and flip every bit of it. Load must either hand back a whole
// accepted document with the file left in place, or quarantine the
// exact damaged image to .corrupt and load nothing — never half-load,
// never fail to start.
func TestSaveLoadDamagedEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state", "doc.json") // Save creates the directory
	good, _ := json.MarshalIndent(doc{Version: 1, Items: []string{"alpha", "beta"}}, "", "  ")
	good = append(good, '\n')
	if err := Save(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, good); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, good) {
		t.Fatalf("Save did not replace the document: %q", got)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Fatalf("Save left temp litter: %v", ents)
	}
	if d, q, err := loadDoc(filepath.Join(dir, "absent")); d != nil || q || err != nil {
		t.Fatalf("missing file: doc=%v quarantined=%v err=%v", d, q, err)
	}

	check := func(name string, image []byte) {
		t.Helper()
		os.Remove(path + ".corrupt")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		d, quarantined, err := loadDoc(path)
		side, sideErr := os.ReadFile(path + ".corrupt")
		switch {
		case quarantined:
			if d != nil || err == nil {
				t.Fatalf("%s: quarantined but doc=%v err=%v", name, d, err)
			}
			if sideErr != nil || !bytes.Equal(side, image) {
				t.Fatalf("%s: .corrupt = %q (%v), want the damaged image", name, side, sideErr)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: damaged file still in place", name)
			}
		case err != nil:
			t.Fatalf("%s: Load failed without quarantining: %v", name, err)
		default:
			if d == nil || d.Version != 1 || sideErr == nil {
				t.Fatalf("%s: accepted load gave doc=%v, sidecar present=%v", name, d, sideErr == nil)
			}
		}
	}
	for cut := 0; cut <= len(good); cut++ {
		check(fmt.Sprintf("cut=%d", cut), good[:cut])
		// Only the whole document, with or without its final newline,
		// may load.
		if _, err := os.Stat(path); (err == nil) != (cut >= len(good)-1) {
			t.Fatalf("cut=%d: file in place = %v", cut, err == nil)
		}
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			image := append([]byte(nil), good...)
			image[i] ^= 1 << bit
			check(fmt.Sprintf("flip byte %d bit %d", i, bit), image)
		}
	}
}

// FuzzRepairReplay feeds arbitrary bytes in as a log file — the shape
// every journal and trail file has after arbitrary damage. OpenLog must
// not fail, repair must be idempotent and lossless (file + sidecar hold
// every original byte), and Replay must visit exactly the complete
// lines a decoder accepts, counting the rest.
func FuzzRepairReplay(f *testing.F) {
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"b\"}\n"))
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"b\",\"trunc"))
	f.Add([]byte("no newline at all"))
	f.Add([]byte("\n\n\r\n{\"id\":1}\r\n\xff\xfe\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, torn := openLog(t, path)
		l.Close()
		repaired, _ := os.ReadFile(path)
		if len(repaired) > 0 && repaired[len(repaired)-1] != '\n' {
			t.Fatalf("repaired file does not end in a newline: %q", repaired)
		}
		side, _ := os.ReadFile(path + ".quarantine")
		if torn > 0 {
			side = side[:len(side)-1] // the sidecar's own terminator
		}
		if int64(len(side)) != torn || !bytes.Equal(append(repaired, side...), data) {
			t.Fatalf("repair lost bytes: file %q + sidecar %q != input %q", repaired, side, data)
		}
		l2, torn2 := openLog(t, path)
		l2.Close()
		if again, _ := os.ReadFile(path); torn2 != 0 || !bytes.Equal(again, repaired) {
			t.Fatalf("repair not idempotent: second open tore %d bytes", torn2)
		}

		var want []string
		wantSkipped := 0
		for _, line := range bytes.Split(bytes.TrimSuffix(repaired, []byte("\n")), []byte("\n")) {
			switch line = bytes.TrimSpace(line); {
			case len(line) == 0:
			case json.Valid(line):
				want = append(want, string(line))
			default:
				wantSkipped++
			}
		}
		got, skipped := replayAll(t, path)
		if skipped != wantSkipped || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("replay = %q (%d skipped), want %q (%d skipped)", got, skipped, want, wantSkipped)
		}
	})
}
