package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// runCLI invokes run with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	for _, flag := range []string{"-poll", "-journal", "-checkpoint", "-http"} {
		if !strings.Contains(stderr, flag) {
			t.Errorf("-h output does not document %s", flag)
		}
	}
}

// TestFlagSurface pins the flags loopscope-agg registers, so a new one
// shows up as a diff of this list.
func TestFlagSurface(t *testing.T) {
	_, _, stderr := runCLI(t, "-h")
	var got []string
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	sort.Strings(got)
	want := []string{
		"checkpoint", "checkpoint-interval", "http", "journal",
		"log-format", "log-level", "poll", "poll-interval",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags = %q\nwant    %q", got, want)
	}
}

func TestRunNothingToDoUsageError(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("no transports exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "nothing to do") {
		t.Errorf("stderr does not explain the problem: %q", stderr)
	}
}

func TestRunBadFlagsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-http", ":0", "-log-level", "shouting"},
		{"-http", ":0", "-log-format", "yaml"},
		{"-http", ":0", "positional"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
}

// Boot the aggregator for real: serve on an ephemeral port, push one
// event through /api/v1/ingest, read it back from the fleet API, then
// shut down via SIGTERM and verify a clean exit with the journal and
// checkpoint in place.
func TestRunServesAndShutsDownCleanly(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "fleet.jsonl")
	cp := filepath.Join(dir, "cursors.json")

	var out, errw syncBuilder
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-http", "127.0.0.1:0",
			"-journal", journal,
			"-checkpoint", cp,
		}, &out, &errw)
	}()

	url := waitForURL(t, &errw)
	body := `{"id":"m1","source":"tap","vantage":"bb1","prefix":"10.1.2.0/24",` +
		`"startNs":1000000000,"endNs":2000000000,"durationNs":1000000000,` +
		`"streams":2,"replicas":8,"ttlDelta":3,"emittedAtNs":2000000000}`
	resp, err := http.Post(url+"api/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("ingest POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	resp, err = http.Get(url + "api/v1/fleet/loops")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Data struct {
			Loops []json.RawMessage `json:"loops"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(env.Data.Loops) != 1 {
		t.Fatalf("fleet loops = %d, want 1", len(env.Data.Loops))
	}

	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, want 0; stderr:\n%s", code, errw.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("journal missing after shutdown: %v", err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Errorf("cursor checkpoint missing after shutdown: %v", err)
	}
}

// waitForURL scrapes the "serving fleet API url=" log line.
func waitForURL(t *testing.T, errw *syncBuilder) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := errw.String()
		if i := strings.Index(s, "url=http://"); i >= 0 {
			rest := s[i+len("url="):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				return rest[:j]
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("API URL never appeared in logs:\n%s", errw.String())
	return ""
}

// syncBuilder is a strings.Builder safe for the logger goroutine and
// the test to share.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
