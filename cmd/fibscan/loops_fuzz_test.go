package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"loopscope/internal/routing"
)

// FuzzParseTraceLoops: a -loops report comes from outside the process.
// Whatever its bytes, parsing does not panic, and what it accepts it
// turns into one TraceLoop per loop in the report, each prefix reading
// back as itself.
func FuzzParseTraceLoops(f *testing.F) {
	for _, seed := range []string{
		`{"link":"cli-test","loops":[{"prefix":"10.1.0.0/16","startNs":0,"endNs":50000000},{"prefix":"9.9.9.0/24","startNs":0,"endNs":1000}]}`,
		`{"loops":[{"prefix":"9.9.9.0/24","startNs":0,"endNs":1000}]}`,
		`{"loops":[{"prefix":"not-a-prefix"}]}`,
		`{"loops":[{"prefix":"0.0.0.0/0","startNs":-1,"endNs":9223372036854775807}]} `,
		`{"loops":null,"run":{"wallNs":5}}`,
		`{"loops":[]} trailing`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loops, err := parseTraceLoops(bytes.NewReader(data))
		if err != nil {
			return
		}
		var doc struct{ Loops []json.RawMessage }
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted what encoding/json refuses: %v", err)
		}
		if len(loops) != len(doc.Loops) {
			t.Fatalf("%d loops in the report, %d parsed", len(doc.Loops), len(loops))
		}
		for i, l := range loops {
			if p, err := routing.ParsePrefix(l.Prefix.String()); err != nil || p != l.Prefix {
				t.Fatalf("loop %d: prefix %v reads back as %v, %v", i, l.Prefix, p, err)
			}
		}
	})
}
