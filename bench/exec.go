package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// binaries are the product commands the workloads exec.
var binaries = []string{"loopdetect", "loopscoped", "loopscope-agg", "fibscan"}

// env is where one harness invocation keeps its files: everything lives
// under Out, inside the checkout.
type env struct {
	Root string // repository root (holds go.mod and cmd/)
	Out  string // scratch directory for binaries, inputs and results
}

func (e env) bin(name string) string { return filepath.Join(e.Out, "bin", name) }

// build compiles the product binaries once, before any timer starts,
// and returns how long the go command took.
func (e env) build() (time.Duration, error) {
	args := []string{"build", "-o", filepath.Join(e.Out, "bin") + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = e.Root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/...: %v\n%s", err, stderr.String())
	}
	return time.Since(start), nil
}

// procStats is what the harness learns about one finished child.
type procStats struct {
	Wall   time.Duration
	CPU    time.Duration // user + system
	RSSMiB float64       // peak resident set
	Stdout []byte
}

// runTimed execs one command to completion, timing exec to exit. Peak
// RSS comes from the child's rusage, which Linux seeds at exec with the
// peak RSS of the address space the child was spawned from: the reading
// is the child's own only while the harness has never been larger than
// the child, which is why inputs are generated in a subprocess (see
// generate) and why every run checks the floor (see rssFloor).
func runTimed(ctx context.Context, path string, args ...string) (procStats, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	st := procStats{Wall: time.Since(start), Stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		st.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.RSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return st, fmt.Errorf("%s %v: %v\n%s", filepath.Base(path), args, err, tail(stderr.Bytes(), 2048))
	}
	return st, nil
}

// rssFloor returns the smallest peak RSS runTimed can report right now:
// what a child that allocates next to nothing inherits from the harness.
func rssFloor(ctx context.Context, e env) float64 {
	st, _ := runTimed(ctx, e.bin("fibscan"), "-h")
	return st.RSSMiB
}

// tail returns the last n bytes of b, for error messages.
func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
