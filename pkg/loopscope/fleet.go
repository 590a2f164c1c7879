package loopscope

// This file is the fleet-tier client surface: typed access to the
// loopscope-agg daemon's /api/v1/fleet endpoints. The aggregator
// speaks the same envelope protocol as loopscoped, so one Client
// works against either daemon — point it at the aggregator's base URL
// and use the Fleet* methods.

import "context"

// FleetHealth is the aggregator's GET /api/v1/health: liveness plus
// fleet totals. Its fields are declared in sorted key order, the order
// the golden wire documents pin.
type FleetHealth struct {
	Duplicates int64 `json:"duplicates"`
	FleetLoops int   `json:"fleetLoops"`
	// Health names each degraded or failing component; absent while
	// everything is healthy.
	Health       map[string]string `json:"health,omitempty"`
	Observations int64             `json:"observations"`
	// Status is the worst component state: "ok" only while every
	// component is healthy.
	Status   string `json:"status"`
	UptimeS  int64  `json:"uptimeS"`
	Vantages int    `json:"vantages"`
}

// FleetEvidence is one vantage's observation backing a fleet loop:
// which daemon saw it, the event it published, and the loop shape it
// measured. Start/End are on that vantage's trace clock.
type FleetEvidence struct {
	Vantage   string `json:"vantage"`
	EventID   string `json:"eventId"`
	Source    string `json:"source,omitempty"`
	Prefix    string `json:"prefix"`
	StartNs   int64  `json:"startNs"`
	EndNs     int64  `json:"endNs"`
	TTLDelta  int    `json:"ttlDelta"`
	Streams   int    `json:"streams"`
	Replicas  int    `json:"replicas"`
	Truncated bool   `json:"truncated,omitempty"`
	// Prov is the closed-out provenance record: the daemon-side stamps
	// the event arrived with plus the aggregator's ingested/clustered
	// stamps. Nil for observations from pre-provenance daemons.
	Prov *Provenance `json:"prov,omitempty"`
}

// FleetLoop is one deduplicated routing loop as the aggregator sees
// it across the fleet: per-vantage observations of the same
// underlying loop (destination prefix + overlapping window +
// compatible TTL delta) merged into a single cluster.
type FleetLoop struct {
	ID string `json:"id"`
	// Prefix is the correlation key: the destination prefix
	// aggregated to the configured prefix length.
	Prefix     string `json:"prefix"`
	TTLDelta   int    `json:"ttlDelta"`
	StartNs    int64  `json:"startNs"`
	EndNs      int64  `json:"endNs"`
	DurationNs int64  `json:"durationNs"`
	// Vantages lists the distinct daemons that observed the loop,
	// sorted.
	Vantages     []string        `json:"vantages"`
	Observations int             `json:"observations"`
	Evidence     []FleetEvidence `json:"evidence"`
}

// FleetVantage is one daemon's standing with the aggregator.
type FleetVantage struct {
	Name string `json:"name"`
	// Transports lists how observations arrive from this vantage:
	// "push" (webhook) and/or "pull" (cursor polling).
	Transports   []string `json:"transports"`
	Observations int64    `json:"observations"`
	Duplicates   int64    `json:"duplicates"`
	// LastEventNs is the newest observed loop end (vantage trace clock).
	LastEventNs int64 `json:"lastEventNs,omitempty"`
	// LastSeenUnixNs is when the newest observation arrived (wall clock).
	LastSeenUnixNs int64 `json:"lastSeenUnixNs,omitempty"`
	// LagNs is how long ago that was, measured when the listing was
	// rendered.
	LagNs int64 `json:"lagNs,omitempty"`
	// Cursor is the pull transport's resume position (ring sequence).
	Cursor  int64  `json:"cursor,omitempty"`
	Health  string `json:"health,omitempty"`
	LastErr string `json:"lastError,omitempty"`
	// SkewNs is the aggregator's estimate of this vantage's clock
	// offset: the minimum observed (ingest wall clock − event publish
	// stamp). Negative means the vantage's clock runs ahead of the
	// aggregator's; such events produce clamped (not sketched)
	// cross-process latencies. Only meaningful when SkewSamples > 0.
	SkewNs int64 `json:"skewNs,omitempty"`
	// SkewSamples counts the provenance-carrying observations behind
	// the estimate; zero means no estimate.
	SkewSamples int64 `json:"skewSamples,omitempty"`
}

// FleetLoopsQuery selects GET /api/v1/fleet/loops. Zero values mean
// the server defaults: every fleet loop, oldest first.
type FleetLoopsQuery struct {
	// Limit keeps only the newest N loops (by first observation).
	Limit int
	// Prefix restricts to fleet loops whose aggregated prefix equals it.
	Prefix string
}

// FleetStatsQuery selects GET /api/v1/fleet/stats. Zero values mean
// the cumulative window over every vantage with all metrics.
type FleetStatsQuery struct {
	Window  string
	Vantage string
	Metric  string
}

// FleetHealth fetches the aggregator's GET /api/v1/health.
func (c *Client) FleetHealth(ctx context.Context) (*FleetHealth, error) {
	var h FleetHealth
	if _, err := c.get(ctx, "/api/v1/health", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// FleetLoops fetches the aggregator's deduplicated loop clusters.
func (c *Client) FleetLoops(ctx context.Context, q FleetLoopsQuery) ([]FleetLoop, error) {
	var body struct {
		Loops []FleetLoop `json:"loops"`
	}
	if _, err := c.get(ctx, "/api/v1/fleet/loops", &body, "limit", positive(int64(q.Limit)), "prefix", q.Prefix); err != nil {
		return nil, err
	}
	return body.Loops, nil
}

// FleetVantages fetches the per-vantage standing table, sorted by name.
func (c *Client) FleetVantages(ctx context.Context) ([]FleetVantage, error) {
	var body struct {
		Vantages []FleetVantage `json:"vantages"`
	}
	if _, err := c.get(ctx, "/api/v1/fleet/vantages", &body); err != nil {
		return nil, err
	}
	return body.Vantages, nil
}

// FleetStats fetches fleet-wide loop statistics: the per-vantage
// analytics sketches merged across the fleet (or one vantage when
// q.Vantage is set). The document shape is the same Stats the daemon
// serves.
func (c *Client) FleetStats(ctx context.Context, q FleetStatsQuery) (*Stats, error) {
	var st Stats
	if _, err := c.get(ctx, "/api/v1/fleet/stats", &st, "window", q.Window, "vantage", q.Vantage, "metric", q.Metric); err != nil {
		return nil, err
	}
	return &st, nil
}
