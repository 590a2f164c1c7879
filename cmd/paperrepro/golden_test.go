package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// update rewrites testdata/all.golden from the current code; do it only
// for a change that means to alter the output, and requote
// EXPERIMENTS.md from the new file.
var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current code")

var golden = filepath.Join("testdata", "all.golden")

// TestGoldenAll compares `paperrepro -exp all` at scale 1 with
// testdata/all.golden, the output EXPERIMENTS.md quotes.
func TestGoldenAll(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates every experiment at full scale")
	}
	var got bytes.Buffer
	if err := run("all", 1, "", &got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("output differs from %s from line %d:\n--- got\n%s\n--- want\n%s", golden, i+1,
				strings.Join(gotLines[i:min(i+5, len(gotLines))], "\n"), strings.Join(wantLines[i:min(i+5, len(wantLines))], "\n"))
		}
	}
}

var (
	// fence matches a fenced code block, whose backticks are no quote.
	fence = regexp.MustCompile("(?ms)^```.*?^```$")
	// quote matches a backticked span that is a number as printed, with
	// its sign or unit: `695198`, `0.902`, `x15.4`, `525.1ms`, `+0.1s`.
	quote = regexp.MustCompile("`([x+-]?[0-9][^`\\s]*)`")
)

// TestExperimentsQuoteGolden holds EXPERIMENTS.md to the golden output:
// every number it quotes must occur in testdata/all.golden verbatim, not
// as part of a longer number, and every result section must quote one.
func TestExperimentsQuoteGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	// The text before the first section is the header, which need not
	// quote a number; whatever it quotes is checked all the same.
	sections := strings.Split(fence.ReplaceAllString(string(doc), ""), "\n## ")
	for i, sec := range sections {
		title, _, _ := strings.Cut(sec, "\n")
		quotes := quote.FindAllStringSubmatch(sec, -1)
		if i > 0 && len(quotes) == 0 {
			t.Errorf("section %q quotes no number from the output", title)
		}
		for _, q := range quotes {
			printed := regexp.MustCompile(`(^|[^0-9.])` + regexp.QuoteMeta(q[1]) + `($|[^0-9])`)
			if !printed.Match(out) {
				t.Errorf("section %q quotes %s, which %s does not print", title, q[0], golden)
			}
		}
	}
}
