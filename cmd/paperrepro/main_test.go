package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestRunSmoke exercises the harness end to end at a tiny scale:
// simulate, detect, render one table, and write the CSV bundle.
func TestRunSmoke(t *testing.T) {
	if err := run("nope", 1, "", io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := run("table1", scale, "", io.Discard); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	if testing.Short() {
		t.Skip("simulates four backbones")
	}
	dir := t.TempDir()
	if err := run("table1", 0.05, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2_ttl_delta.csv", "fig9_loop_duration_cdf.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("csv %s not written: %v", name, err)
		}
	}
}
