// Package loopscope declares loopscope's wire contract and is a typed
// Go client for it.
//
// Every JSON document the daemon (loopscoped) and the fleet aggregator
// (loopscope-agg) emit is declared here, once: the loop event that is
// a journal line, a webhook body and an /api/v1/loops row, the source,
// stats and latency documents, the health documents and the envelope
// metadata. The servers render these types directly, so the client
// decodes exactly what they encode. The package imports the standard
// library only.
//
// Every v1 response arrives in one envelope — {"data": …, "meta":
// {"api":"v1", …}} on success, {"error": {"code","message"}} on
// failure — and the client owns that protocol: it unwraps the
// envelope, turns error objects into *APIError values carrying the
// HTTP status and machine-readable code, and hands back plain Go
// structs.
package loopscope

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Client talks to one loopscoped daemon. The zero value is not
// usable; construct with New.
type Client struct {
	base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:9090"). Any trailing slash is trimmed.
func New(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/")}
}

// Meta is the envelope metadata accompanying every v1 success
// response.
type Meta struct {
	API string `json:"api"`
	// Vantage is the answering daemon's fleet identity (its -vantage
	// flag, default hostname), so aggregators can attribute a response
	// without transport heuristics; empty from servers that are not a
	// vantage themselves (the aggregator).
	Vantage string `json:"vantage,omitempty"`
	// Total is the all-time event count behind a paginated listing.
	Total *int64 `json:"total,omitempty"`
	// NextCursor, when present, fetches the next (older) page.
	NextCursor *int64 `json:"nextCursor,omitempty"`
}

// APIError is the v1 error object ("error" in an error reply) plus the
// HTTP status it arrived with. Code is one of the servers' stable error
// codes ("bad_param", "not_found", "disabled").
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("loopscope: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Health is the daemon's GET /api/v1/health. Its fields are declared
// in sorted key order, the order the golden wire documents pin.
type Health struct {
	Events int64 `json:"events"`
	// Health names each degraded or failing component; absent while
	// everything is healthy.
	Health  map[string]string `json:"health,omitempty"`
	Records int64             `json:"records"`
	Sources int               `json:"sources"`
	// Status is the worst component state: "ok" only while every
	// component is healthy.
	Status  string `json:"status"`
	UptimeS int64  `json:"uptimeS"`
}

// Event is one routing-loop detection: the journal line, the webhook
// body and the event of an /api/v1/loops row. Durations and timestamps
// are nanoseconds; Start/End are on the trace clock (offset from
// capture start), EmittedAt on the wall clock.
type Event struct {
	// ID is deterministic over (source, prefix, loop start): the same
	// loop gets the same ID whether it is emitted live, after a
	// checkpoint resume, or by an uninterrupted run — which is what
	// lets the journal deduplicate and downstream consumers treat
	// redelivery as idempotent. Truncated emissions carry a distinct
	// ID (suffix "-t<end>") so a drain-flushed partial loop never
	// masks the completed loop a resumed run emits later.
	ID     string `json:"id"`
	Source string `json:"source"`
	// Vantage is the stable identity of the daemon instance that
	// observed the loop (the -vantage flag, default hostname). It rides
	// in every journal line and webhook payload so the fleet aggregator
	// can attribute and deduplicate observations without transport
	// heuristics.
	Vantage string `json:"vantage,omitempty"`
	Link    string `json:"link,omitempty"`
	Prefix  string `json:"prefix"`
	// Seq is the emission sequence number within the source (-1 for
	// truncated emissions).
	Seq        int   `json:"seq"`
	StartNs    int64 `json:"startNs"`
	EndNs      int64 `json:"endNs"`
	DurationNs int64 `json:"durationNs"`
	Streams    int   `json:"streams"`
	Replicas   int   `json:"replicas"`
	TTLDelta   int   `json:"ttlDelta"`
	// Escaped counts the loop's streams whose packet plausibly left the
	// loop alive.
	Escaped     int   `json:"escaped,omitempty"`
	Truncated   bool  `json:"truncated,omitempty"`
	EmittedAtNs int64 `json:"emittedAtNs"`
	// Prov is the pipeline-provenance hop record: stamped as the event
	// moves detect → publish → journal/webhook, carried verbatim over
	// both transports, and closed out (ingested/clustered) by the fleet
	// aggregator. Treated as immutable — Stamp copies on write, so the
	// ring copy, the journal line, and each webhook payload diverge
	// without aliasing. Nil on events from pre-provenance daemons.
	Prov *Provenance `json:"prov,omitempty"`
}

// Provenance is the per-event hop-timestamp record ("prov" in event
// JSON): wall-clock unix nanoseconds per pipeline hop, zero meaning
// the hop has not happened or does not apply (a pulled event never has
// a webhook_sent stamp). Same-process stamps are monotonic-anchored by
// the producer; cross-process deltas inherit inter-host skew — see the
// aggregator's per-vantage skew estimate.
type Provenance struct {
	DetectedNs    int64 `json:"detectedNs,omitempty"`
	PublishedNs   int64 `json:"publishedNs,omitempty"`
	JournaledNs   int64 `json:"journaledNs,omitempty"`
	WebhookSentNs int64 `json:"webhookSentNs,omitempty"`
	IngestedNs    int64 `json:"ingestedNs,omitempty"`
	ClusteredNs   int64 `json:"clusteredNs,omitempty"`
}

// Hop names, the Stamp keys and the endpoints of the latency segments.
const (
	HopDetected    = "detected"
	HopPublished   = "published"
	HopJournaled   = "journaled"
	HopWebhookSent = "webhook_sent"
	HopIngested    = "ingested"
	HopClustered   = "clustered"
)

// Stamp returns a record with the hop set to ns, copying on write (a
// nil receiver allocates a fresh record). ns <= 0 or an unknown hop
// returns the receiver unchanged — in particular, stamping nothing
// onto a nil record stays nil and allocation-free, which is the
// provenance-disabled no-op path.
func (p *Provenance) Stamp(hop string, ns int64) *Provenance {
	if ns <= 0 {
		return p
	}
	var np Provenance
	if p != nil {
		np = *p
	}
	switch hop {
	case HopDetected:
		np.DetectedNs = ns
	case HopPublished:
		np.PublishedNs = ns
	case HopJournaled:
		np.JournaledNs = ns
	case HopWebhookSent:
		np.WebhookSentNs = ns
	case HopIngested:
		np.IngestedNs = ns
	case HopClustered:
		np.ClusteredNs = ns
	default:
		return p
	}
	return &np
}

// LoopEvent is one row of GET /api/v1/loops: the event plus its ring
// sequence number, the cursor coordinate for pagination.
type LoopEvent struct {
	Seq   int64 `json:"seq"`
	Event Event `json:"event"`
}

// LoopPage is one page of GET /api/v1/loops, newest first.
type LoopPage struct {
	Events []LoopEvent
	// Vantage is the serving daemon's fleet identity (envelope meta).
	Vantage string
	// Total is the all-time published event count.
	Total int64
	// NextCursor fetches the next (older) page; zero when this page
	// exhausted the ring.
	NextCursor int64
}

// LoopsQuery selects a page of GET /api/v1/loops. Zero values mean
// the server defaults: limit 100, newest page, all sources.
type LoopsQuery struct {
	Limit  int
	Cursor int64
	Source string
}

// Source is one source's live status, an entry of GET /api/v1/sources.
type Source struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Path     string `json:"path,omitempty"`
	Status   string `json:"status"`
	Link     string `json:"link,omitempty"`
	Records  int64  `json:"records"`
	Emitted  int    `json:"emitted"`
	LagBytes int64  `json:"lagBytes"`
	// Segment/Segments locate a dir source within its rotation
	// sequence (1-based; zero for other kinds), and LagSegments counts
	// rotated segments between it and the directory head.
	Segment     int    `json:"segment,omitempty"`
	Segments    int    `json:"segments,omitempty"`
	LagSegments int64  `json:"lagSegments,omitempty"`
	Restarts    int64  `json:"restarts"`
	LastErr     string `json:"lastError,omitempty"`
}

// Bucket is one histogram bucket of a stats or latency row:
// observations v with Lo <= v <= Hi.
type Bucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// TopPrefix is one entry of a stats document's top looping prefixes.
// Count overestimates the true count by at most Err.
type TopPrefix struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// MetricStats is one metric's distribution over the queried window,
// a block of GET /api/v1/stats.
type MetricStats struct {
	Metric string `json:"metric"`
	// Kind is "sketch" (quantiles within the relative error bound) or
	// "exact" (integer histogram).
	Kind      string           `json:"kind"`
	Count     uint64           `json:"count"`
	Mean      float64          `json:"mean"`
	Min       int64            `json:"min"`
	Max       int64            `json:"max"`
	Quantiles map[string]int64 `json:"quantiles"`
	Buckets   []Bucket         `json:"buckets"`
}

// Stats is the stats document of GET /api/v1/stats and
// GET /api/v1/fleet/stats.
type Stats struct {
	Window string `json:"window"`
	Source string `json:"source,omitempty"`
	// Loops is the number of loops the window holds.
	Loops uint64 `json:"loops"`
	// ErrorBound is the sketch metrics' relative quantile error.
	ErrorBound  float64                `json:"errorBound"`
	Metrics     map[string]MetricStats `json:"metrics"`
	TopPrefixes []TopPrefix            `json:"topPrefixes"`
}

// StatsQuery selects a stats document. Zero values mean the
// cumulative window over all sources with every metric.
type StatsQuery struct {
	Window string
	Source string
	Metric string
}

// Health fetches GET /api/v1/health.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if _, err := c.get(ctx, "/api/v1/health", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Loops fetches one page of GET /api/v1/loops. Walk the full ring by
// following NextCursor until it is zero.
func (c *Client) Loops(ctx context.Context, q LoopsQuery) (*LoopPage, error) {
	var body struct {
		Events []LoopEvent `json:"events"`
	}
	meta, err := c.get(ctx, "/api/v1/loops", &body,
		"limit", positive(int64(q.Limit)), "cursor", positive(q.Cursor), "source", q.Source)
	if err != nil {
		return nil, err
	}
	page := &LoopPage{Events: body.Events, Vantage: meta.Vantage}
	if meta.Total != nil {
		page.Total = *meta.Total
	}
	if meta.NextCursor != nil {
		page.NextCursor = *meta.NextCursor
	}
	return page, nil
}

// Sources fetches GET /api/v1/sources, sorted by name.
func (c *Client) Sources(ctx context.Context) ([]Source, error) {
	var body struct {
		Sources []Source `json:"sources"`
	}
	if _, err := c.get(ctx, "/api/v1/sources", &body); err != nil {
		return nil, err
	}
	return body.Sources, nil
}

// Stats fetches GET /api/v1/stats for the given window, source, and
// metric selection.
func (c *Client) Stats(ctx context.Context, q StatsQuery) (*Stats, error) {
	var st Stats
	if _, err := c.get(ctx, "/api/v1/stats", &st, "window", q.Window, "source", q.Source, "metric", q.Metric); err != nil {
		return nil, err
	}
	return &st, nil
}

// TraceIDs fetches the sealed trail index, GET /api/v1/trace.
func (c *Client) TraceIDs(ctx context.Context) ([]string, error) {
	var body struct {
		Trails []string `json:"trails"`
	}
	if _, err := c.get(ctx, "/api/v1/trace", &body); err != nil {
		return nil, err
	}
	return body.Trails, nil
}

// Trace fetches one sealed decision trail, GET /api/v1/trace/{id}.
// The trail schema is owned by the daemon's flight recorder and
// evolves with it, so the client passes the document through verbatim.
func (c *Client) Trace(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	if _, err := c.get(ctx, "/api/v1/trace/"+url.PathEscape(id), &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// maxReply caps one v1 reply body.
const maxReply = 64 << 20

// positive renders n as a query parameter value, empty (the server's
// default) unless n > 0.
func positive(n int64) string {
	if n <= 0 {
		return ""
	}
	return strconv.FormatInt(n, 10)
}

// get performs one v1 request with the non-empty parameters of params,
// given as name, value pairs: non-2xx responses decode into *APIError,
// successes unwrap the envelope into data (which may be a
// *json.RawMessage to skip typing) and return its meta block.
func (c *Client) get(ctx context.Context, path string, data any, params ...string) (Meta, error) {
	vals := url.Values{}
	for i := 0; i+1 < len(params); i += 2 {
		if params[i+1] != "" {
			vals.Set(params[i], params[i+1])
		}
	}
	u := c.base + path
	if len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Meta{}, err
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Meta{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReply+1))
	if err != nil {
		return Meta{}, fmt.Errorf("loopscope: reading %s: %w", path, err)
	}
	if len(body) > maxReply {
		return Meta{}, fmt.Errorf("loopscope: %s reply exceeds %d bytes", path, maxReply)
	}
	var env struct {
		Data  json.RawMessage `json:"data"`
		Meta  Meta            `json:"meta"`
		Error *APIError       `json:"error"`
	}
	decodeErr := json.Unmarshal(body, &env)
	if resp.StatusCode != http.StatusOK {
		if decodeErr == nil && env.Error != nil && env.Error.Code != "" {
			env.Error.Status = resp.StatusCode
			return Meta{}, env.Error
		}
		return Meta{}, &APIError{Status: resp.StatusCode, Code: "http_error",
			Message: strings.TrimSpace(string(body))}
	}
	if decodeErr != nil {
		return Meta{}, fmt.Errorf("loopscope: decoding %s envelope: %w", path, decodeErr)
	}
	if env.Meta.API != "v1" {
		return Meta{}, fmt.Errorf("loopscope: %s answered api %q, want v1", path, env.Meta.API)
	}
	if data != nil {
		if err := json.Unmarshal(env.Data, data); err != nil {
			return Meta{}, fmt.Errorf("loopscope: decoding %s data: %w", path, err)
		}
	}
	return env.Meta, nil
}
