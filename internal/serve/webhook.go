package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"loopscope/internal/obs"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/resil"
)

// WebhookOptions configures NewWebhook.
type WebhookOptions struct {
	// URL receives each event as a JSON POST.
	URL string
	// QueueSize bounds the in-flight queue (<= 0: 256). When the queue
	// is full Publish drops the event and counts it — detection never
	// blocks on a slow or dead endpoint.
	QueueSize int
	// MaxRetries is how many delivery attempts each event gets before
	// being dropped (<= 0: 8).
	MaxRetries int
	// Backoff shapes the per-event retry delays. The zero value
	// selects the shared resil defaults: 500ms doubling to 30s,
	// jittered.
	Backoff resil.Policy
	// Breaker shapes the circuit breaker protecting the endpoint. The
	// zero value selects resil's defaults (trip after 5 consecutive
	// failures, re-probe after 10s). Its OnChange is the sink's own: it
	// feeds the breaker metrics and the sink's health.
	Breaker resil.BreakerConfig
	// Timeout bounds each POST (<= 0: 10s).
	Timeout time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Injector, when non-nil, is consulted before every POST (chaos
	// tests); production passes nil.
	Injector resil.Injector
	// Health, when non-nil, receives the breaker's health state.
	Health *resil.HealthSet
	// Metrics receives the queue/delivery counters (may be nil).
	Metrics *obs.Registry
}

// Webhook is the push sink: a bounded queue feeding one delivery
// worker that POSTs events as JSON with exponential-backoff retries
// behind a circuit breaker. Delivery is at-least-once at best and
// lossy under sustained backend failure — by design: the journal is
// the durable record, the webhook is a notification channel, and a
// full queue sheds load instead of stalling the detectors. When the
// endpoint fails repeatedly the breaker opens and events are dropped
// without burning retry time on a dead backend; a probe re-closes it
// once the endpoint recovers. Drops, retries and breaker state are
// visible in /metrics.
type Webhook struct {
	opts    WebhookOptions
	client  *http.Client
	breaker *resil.Breaker
	queue   chan Event
	done    chan struct{}
	exited  chan struct{}
	cancel  context.CancelFunc

	depth     *obs.Gauge
	delivered *obs.Counter
	dropped   *obs.Counter
	retries   *obs.Counter
}

// NewWebhook starts the delivery worker and returns the sink.
func NewWebhook(opts WebhookOptions) *Webhook {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 256
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Webhook{
		opts:      opts,
		client:    client,
		queue:     make(chan Event, opts.QueueSize),
		done:      make(chan struct{}),
		exited:    make(chan struct{}),
		cancel:    cancel,
		depth:     opts.Metrics.Gauge(obs.LabelMetric(obs.MetricServeSinkQueueDepth, "sink", "webhook")),
		delivered: opts.Metrics.Counter(obs.LabelMetric(obs.MetricServeSinkDelivered, "sink", "webhook")),
		dropped:   opts.Metrics.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "webhook")),
		retries:   opts.Metrics.Counter(obs.LabelMetric(obs.MetricServeSinkRetries, "sink", "webhook")),
	}
	bc := opts.Breaker
	stateG := opts.Metrics.Gauge(obs.LabelMetric(obs.MetricBreakerState, "sink", "webhook"))
	transC := opts.Metrics.Counter(obs.LabelMetric(obs.MetricBreakerTransitions, "sink", "webhook"))
	bc.OnChange = func(to resil.BreakerState) {
		stateG.Set(int64(to))
		transC.Inc()
		opts.Health.Set("sink:webhook", breakerHealth(to))
	}
	w.breaker = resil.NewBreaker(bc)
	go w.run(ctx)
	return w
}

// breakerHealth maps a breaker position to component health.
func breakerHealth(s resil.BreakerState) resil.Health {
	switch s {
	case resil.BreakerOpen:
		return resil.Failing
	case resil.BreakerHalfOpen:
		return resil.Degraded
	}
	return resil.Healthy
}

// Name implements Sink.
func (w *Webhook) Name() string { return "webhook" }

// Publish implements Sink: enqueue without blocking, dropping (and
// counting) when the queue is full or the sink is closed.
func (w *Webhook) Publish(e Event) {
	select {
	case <-w.done:
		w.dropped.Inc()
		return
	default:
	}
	select {
	case w.queue <- e:
		w.depth.Set(int64(len(w.queue)))
	default:
		w.dropped.Inc()
	}
}

// run is the delivery worker: one event at a time, retried with
// backoff until delivered, exhausted, or the sink is cancelled. On
// Close it drains whatever is queued, then exits.
func (w *Webhook) run(ctx context.Context) {
	defer close(w.exited)
	// Seeded by URL: deterministic under test, distinct per endpoint.
	h := fnv.New64a()
	h.Write([]byte(w.opts.URL))
	for {
		var e Event
		select {
		case e = <-w.queue:
		case <-w.done:
			select {
			case e = <-w.queue:
			default:
				return
			}
		}
		w.depth.Set(int64(len(w.queue)))
		w.deliver(ctx, e, resil.NewRetrier(w.opts.Backoff, h.Sum64()))
	}
}

// deliver POSTs one event, retrying with jittered exponential backoff.
// Attempts the breaker refuses are consumed without touching the
// network, so a dead endpoint costs the queue its backoff sleeps but
// not MaxRetries HTTP timeouts per event.
func (w *Webhook) deliver(ctx context.Context, e Event, r *resil.Retrier) {
	// Stamp just before serialization so the hop captures queue wait:
	// publish→webhook_sent is the time the event spent behind earlier
	// deliveries, the signal that the push path is backlogged.
	e.Prov = e.Prov.Stamp(provenance.HopWebhookSent, provenance.Now())
	body, err := json.Marshal(e)
	if err != nil {
		w.dropped.Inc()
		return
	}
	for attempt := 0; attempt < w.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			w.retries.Inc()
			select {
			case <-time.After(r.Next()):
			case <-ctx.Done():
				w.dropped.Inc()
				return
			}
		}
		if !w.breaker.Allow() {
			continue
		}
		if w.post(ctx, body) {
			w.breaker.Success()
			w.delivered.Inc()
			return
		}
		w.breaker.Failure()
		if ctx.Err() != nil {
			w.dropped.Inc()
			return
		}
	}
	w.dropped.Inc()
}

// post makes one delivery attempt; any 2xx response is success.
func (w *Webhook) post(ctx context.Context, body []byte) bool {
	if err := resil.Inject(w.opts.Injector, resil.OpWebhookPost); err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.URL, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// A body closed unread costs the connection: read it to EOF (bounded,
	// so an endpoint streaming a reply cannot hold the worker) and the
	// next POST reuses it. A failed read costs only that reuse.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplyBytes))
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// maxReplyBytes bounds how much of a reply post reads to keep its
// connection; a longer reply closes the connection instead.
const maxReplyBytes = 64 << 10

// Close implements Sink: stop accepting events and let the worker
// drain the queue until ctx expires, then abandon what remains. The
// queue channel is never closed — a straggling Publish after Close is
// a counted drop, not a panic. Idle keep-alive connections are torn
// down so a closed sink leaves no background goroutines.
func (w *Webhook) Close(ctx context.Context) error {
	close(w.done)
	var err error
	select {
	case <-w.exited:
	case <-ctx.Done():
		w.cancel() // abort in-flight delivery and pending backoff
		<-w.exited
		err = ctx.Err()
	}
	w.client.CloseIdleConnections()
	return err
}
