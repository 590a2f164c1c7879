package loopscope

// This file is the client surface for the aggregator's pipeline-
// latency document: GET /api/v1/fleet/latency, the per-(segment,
// vantage) sketch table built from the provenance records riding on
// ingested events.

import "context"

// LatencyExemplar ties one slow observation in a latency row back to
// its event. The event ID doubles as the originating daemon's
// flight-recorder trail ID, so GET /api/v1/trace/{eventId} against
// that vantage's daemon serves the decision log behind the number.
type LatencyExemplar struct {
	EventID string `json:"eventId"`
	Ns      int64  `json:"ns"`
}

// LatencySegment is one (pipeline segment, vantage) row of the fleet
// latency document. Segment names hop-to-hop spans ("detect_publish",
// "publish_ingest", "detect_cluster", …) in pipeline order.
type LatencySegment struct {
	Segment string `json:"segment"`
	Vantage string `json:"vantage"`
	Count   uint64 `json:"count"`
	// Clamped counts negative cross-process deltas (vantage clock ahead
	// of the aggregator) that were clamped to zero and *not* added to
	// the sketch.
	Clamped   uint64            `json:"clamped,omitempty"`
	Mean      float64           `json:"mean"`
	Min       int64             `json:"min"`
	Max       int64             `json:"max"`
	Quantiles map[string]int64  `json:"quantiles"`
	Buckets   []Bucket          `json:"buckets"`
	Exemplars []LatencyExemplar `json:"exemplars,omitempty"`
}

// FleetLatency is GET /api/v1/fleet/latency: rows in canonical
// segment order, vantages sorted within a segment — a deterministic
// rendering of deterministic state.
type FleetLatency struct {
	// ErrorBound is the sketches' relative quantile error.
	ErrorBound float64          `json:"errorBound"`
	Segments   []LatencySegment `json:"segments"`
}

// FleetLatencyQuery selects GET /api/v1/fleet/latency. Zero values
// mean every segment for every vantage.
type FleetLatencyQuery struct {
	Vantage string
	Segment string
}

// FleetLatency fetches the aggregator's pipeline-latency table.
func (c *Client) FleetLatency(ctx context.Context, q FleetLatencyQuery) (*FleetLatency, error) {
	return fetch[FleetLatency](ctx, c, "/api/v1/fleet/latency", "vantage", q.Vantage, "segment", q.Segment)
}
