package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"loopscope/pkg/loopscope"
)

// FuzzStrictParams: on any raw query and any set of allowed names,
// StrictParams accepts exactly when the query parses and every key is
// allowed and appears once; Limit accepts exactly an absent or empty
// limit and the decimal integers in 1..MaxLimit; every rejection is a
// 400 bad_param; nothing panics.
func FuzzStrictParams(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"limit=5", "limit"}, {"limit=%zz", "limit"}, {"bogus%zz=1", "limit"},
		{"limit=5;x=1", "limit,x"}, {"limit=0", "limit"}, {"limit=1000", "limit"}, {"limit=1001", "limit"},
		{"limit=+5", "limit"}, {"limit=007", "limit"}, {"limit=1&limit=2", "limit"}, {"limit=", "limit"},
		{"a=1&b=2", "a,b"}, {"a=1&b=2", "a"}, {"a", "a"}, {"=1", ""}, {"a+b=%20", "a b"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, allowedList string) {
		allowed := strings.Split(allowedList, ",")
		q, parseErr := url.ParseQuery(raw)
		do := func(call func(w http.ResponseWriter, r *http.Request) bool) bool {
			r := httptest.NewRequest(http.MethodGet, "/api/v1/x", nil)
			r.URL.RawQuery = raw
			w := httptest.NewRecorder()
			ok := call(w, r)
			var env loopscope.Envelope
			if !ok && (w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &env) != nil ||
				env.Error == nil || env.Error.Code != ErrBadParam) {
				t.Fatalf("query %q rejected with %d %s, want 400 bad_param", raw, w.Code, w.Body)
			}
			return ok
		}

		wantStrict := parseErr == nil
		for name, vals := range q {
			wantStrict = wantStrict && slices.Contains(allowed, name) && len(vals) == 1
		}
		if got := do(func(w http.ResponseWriter, r *http.Request) bool { return StrictParams(w, r, allowed...) }); got != wantStrict {
			t.Fatalf("StrictParams(%q, allowed %q) = %v, want %v", raw, allowed, got, wantStrict)
		}

		v := q.Get("limit")
		want := -1 // rejected
		switch {
		case parseErr != nil:
		case v == "":
			want = 42
		case strings.Trim(v, "0123456789") == "":
			if n, err := strconv.Atoi(strings.TrimLeft(v, "0")); len(strings.TrimLeft(v, "0")) <= 4 && err == nil && n >= 1 && n <= MaxLimit {
				want = n
			}
		}
		limit := -1
		do(func(w http.ResponseWriter, r *http.Request) bool {
			n, ok := Limit(w, r, 42)
			if ok {
				limit = n
			}
			return ok
		})
		if limit != want {
			t.Fatalf("Limit(%q) = %d, want %d (-1: rejected)", raw, limit, want)
		}
	})
}
