package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
)

// LogOptions configures NewLogger. The zero value gives INFO-level
// plain-text output on stderr with no prefix and no metrics.
type LogOptions struct {
	// Level is the minimum level emitted.
	Level slog.Level
	// Format selects the handler: "text" (default) renders the classic
	// `prefix: 2006/01/02 15:04:05 msg key=value` lines the daemons
	// have always produced; "json" uses slog.JSONHandler.
	Format string
	// Prefix is prepended to every text line (e.g. "loopscoped"),
	// matching the old log.New prefix convention. Ignored for json.
	Prefix string
	// W is the destination; defaults to os.Stderr.
	W io.Writer
	// Metrics, when non-nil, counts every emitted record in
	// MetricLogMessages labelled by level — the error rate becomes
	// scrapeable without log shipping.
	Metrics *Registry
	// NoTimestamp drops the date/time column from text output (for
	// one-shot CLI tools whose lines read `prefix: msg`, and for
	// deterministic test output). Ignored for json.
	NoTimestamp bool
}

// NewLogger builds a slog.Logger per opts. All loopscope binaries log
// through this one constructor so every message — whatever the format
// — passes the same level gate and the same per-level metric counter.
func NewLogger(opts LogOptions) *slog.Logger {
	w := opts.W
	if w == nil {
		w = os.Stderr
	}
	var h slog.Handler
	switch strings.ToLower(opts.Format) {
	case "json":
		h = slog.NewJSONHandler(w, &slog.HandlerOptions{Level: opts.Level})
	default:
		h = &plainHandler{
			w:           &syncWriter{w: w},
			level:       opts.Level,
			prefix:      opts.Prefix,
			noTimestamp: opts.NoTimestamp,
		}
	}
	if opts.Metrics != nil {
		h = &countingHandler{next: h, reg: opts.Metrics}
	}
	return slog.New(h)
}

// NopLogger returns a logger that discards everything (its handler
// reports every level disabled, so arguments are never evaluated).
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// BindLogFlags registers -log-level and -log-format on fs and returns
// the logger constructor they feed: once fs has been parsed, it checks
// both values and builds NewLogger(opts) with them filled in. All three
// binaries declare their log flags through it.
func BindLogFlags(fs *flag.FlagSet) func(LogOptions) (*slog.Logger, error) {
	level := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	format := fs.String("log-format", "text", "log output format: text or json")
	return func(opts LogOptions) (*slog.Logger, error) {
		l, err := ParseLogLevel(*level)
		if err != nil {
			return nil, err
		}
		if *format != "text" && *format != "json" {
			return nil, fmt.Errorf("bad -log-format %q: want text or json", *format)
		}
		opts.Level, opts.Format = l, *format
		return NewLogger(opts), nil
	}
}

// NoteTornRepair counts and logs a torn trailing line that opening a
// durable.Log moved into its quarantine sidecar; file names the log in
// the MetricTornRepairs label. A torn count of zero does nothing.
func NoteTornRepair(reg *Registry, log *slog.Logger, file, path string, torn int64) {
	if torn == 0 {
		return
	}
	reg.Counter(LabelMetric(MetricTornRepairs, "file", file)).Inc()
	log.Warn("torn trailing line quarantined", "file", file, "path", path, "bytes", torn)
}

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// LevelString renders a slog.Level as the lowercase label used for the
// per-level metric series.
func LevelString(l slog.Level) string {
	switch {
	case l < slog.LevelInfo:
		return "debug"
	case l < slog.LevelWarn:
		return "info"
	case l < slog.LevelError:
		return "warn"
	default:
		return "error"
	}
}

// countingHandler wraps another handler and counts every record that
// passes the level gate in MetricLogMessages{level=...}.
type countingHandler struct {
	next slog.Handler
	reg  *Registry
}

func (c *countingHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return c.next.Enabled(ctx, l)
}

func (c *countingHandler) Handle(ctx context.Context, r slog.Record) error {
	c.reg.Counter(LabelMetric(MetricLogMessages, "level", LevelString(r.Level))).Inc()
	return c.next.Handle(ctx, r)
}

func (c *countingHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &countingHandler{next: c.next.WithAttrs(attrs), reg: c.reg}
}

func (c *countingHandler) WithGroup(name string) slog.Handler {
	return &countingHandler{next: c.next.WithGroup(name), reg: c.reg}
}

// syncWriter serialises writes from concurrent log calls.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// plainHandler renders records in the traditional log-package shape —
// `prefix: 2006/01/02 15:04:05 msg key=value ...` — so switching the
// daemons to slog does not change their default output. Non-INFO
// records carry a level token after the timestamp.
type plainHandler struct {
	w           *syncWriter
	level       slog.Level
	prefix      string
	noTimestamp bool
	attrs       []slog.Attr
	group       string
}

func (h *plainHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= h.level
}

func (h *plainHandler) Handle(_ context.Context, r slog.Record) error {
	var sb strings.Builder
	if h.prefix != "" {
		sb.WriteString(h.prefix)
		sb.WriteString(": ")
	}
	if !h.noTimestamp && !r.Time.IsZero() {
		sb.WriteString(r.Time.Format("2006/01/02 15:04:05"))
		sb.WriteByte(' ')
	}
	if r.Level != slog.LevelInfo {
		sb.WriteString(strings.ToUpper(LevelString(r.Level)))
		sb.WriteByte(' ')
	}
	sb.WriteString(r.Message)
	for _, a := range h.attrs {
		h.appendAttr(&sb, a)
	}
	r.Attrs(func(a slog.Attr) bool {
		h.appendAttr(&sb, a)
		return true
	})
	sb.WriteByte('\n')
	_, err := io.WriteString(h.w, sb.String())
	return err
}

func (h *plainHandler) appendAttr(sb *strings.Builder, a slog.Attr) {
	if a.Equal(slog.Attr{}) {
		return
	}
	key := a.Key
	if h.group != "" {
		key = h.group + "." + key
	}
	sb.WriteByte(' ')
	sb.WriteString(key)
	sb.WriteByte('=')
	v := a.Value.Resolve().String()
	if strings.ContainsAny(v, " \t\"") {
		fmt.Fprintf(sb, "%q", v)
	} else {
		sb.WriteString(v)
	}
}

func (h *plainHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = append(append([]slog.Attr{}, h.attrs...), attrs...)
	return &nh
}

func (h *plainHandler) WithGroup(name string) slog.Handler {
	nh := *h
	if nh.group != "" {
		nh.group += "." + name
	} else {
		nh.group = name
	}
	return &nh
}

// nopHandler drops everything; Enabled is false at every level so the
// slog front end skips argument evaluation entirely.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }
