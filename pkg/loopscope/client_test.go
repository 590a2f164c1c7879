package loopscope

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// serveRaw answers every request with one fixed status and body — the
// misbehaving-server harness for the protocol error paths.
func serveRaw(t *testing.T, status int, body string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// Typed error objects on non-200s surface as *APIError with the HTTP
// status and the machine-readable code intact.
func TestAPIErrorFromErrorEnvelope(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		status int
		body   string
		code   string
	}{
		{http.StatusBadRequest, `{"error":{"code":"bad_param","message":"limit out of range"}}`, "bad_param"},
		{http.StatusNotFound, `{"error":{"code":"not_found","message":"no such trail"}}`, "not_found"},
		{http.StatusServiceUnavailable, `{"error":{"code":"disabled","message":"ring disabled"}}`, "disabled"},
	} {
		c := serveRaw(t, tc.status, tc.body)
		_, err := c.Health(ctx)
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("status %d: err = %v, want *APIError", tc.status, err)
		}
		if apiErr.Status != tc.status || apiErr.Code != tc.code {
			t.Errorf("status %d: got %d/%q, want %d/%q", tc.status, apiErr.Status, apiErr.Code, tc.status, tc.code)
		}
		if apiErr.Message == "" || !strings.Contains(apiErr.Error(), tc.code) {
			t.Errorf("status %d: Error() = %q, want code and message rendered", tc.status, apiErr.Error())
		}
	}
}

// A non-200 without a decodable error object still becomes an
// *APIError (code http_error, raw body as message) — never a silent
// nil or a decoding panic.
func TestAPIErrorFromNonJSONFailure(t *testing.T) {
	c := serveRaw(t, http.StatusBadGateway, "upstream fell over\n")
	_, err := c.Sources(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Code != "http_error" {
		t.Errorf("got %d/%q, want 502/http_error", apiErr.Status, apiErr.Code)
	}
	if apiErr.Message != "upstream fell over" {
		t.Errorf("message = %q, want the trimmed raw body", apiErr.Message)
	}
}

// 200s that are not valid v1 envelopes are protocol errors, reported
// distinctly from API errors: non-JSON bodies, JSON that is not the
// envelope shape, and envelopes claiming the wrong API version.
func TestEnvelopeDecodeFailures(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		body string
		want string
	}{
		"non-JSON body":     {"<html>not an api</html>", "decoding /api/v1/health envelope"},
		"data shape":        {`{"data":[1,2,3],"meta":{"api":"v1"}}`, "decoding /api/v1/health data"},
		"wrong api version": {`{"data":{},"meta":{"api":"v2"}}`, `answered api "v2"`},
		"missing meta":      {`{"data":{}}`, `answered api ""`},
	} {
		c := serveRaw(t, http.StatusOK, tc.body)
		_, err := c.Health(ctx)
		if err == nil {
			t.Errorf("%s: err = nil, want envelope error", name)
			continue
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			t.Errorf("%s: got *APIError %v, want plain protocol error", name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %q, want mention of %q", name, err, tc.want)
		}
	}
}

// Connection failures pass through as transport errors, not API
// errors.
func TestTransportErrorPassthrough(t *testing.T) {
	c := New("http://127.0.0.1:1") // nothing listens here
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("err = nil, want connection failure")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Errorf("got *APIError %v, want raw transport error", err)
	}
}

// A reply one byte over the 64 MiB cap is refused with an error that
// names the cap, not cut short into a misleading JSON decoding error.
func TestReplyOverCapRefused(t *testing.T) {
	const limit = 64 << 20
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		head, tail := `{"data":"`, `","meta":{"api":"v1"}}`
		chunk := strings.Repeat("x", 1<<16)
		io.WriteString(w, head)
		for pad := limit + 1 - len(head) - len(tail); pad > 0; pad -= len(chunk) {
			io.WriteString(w, chunk[:min(pad, len(chunk))])
		}
		io.WriteString(w, tail)
	}))
	defer ts.Close()
	_, err := New(ts.URL).Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(limit)) {
		t.Fatalf("err = %v, want a refusal naming the %d-byte cap", err, limit)
	}
}
