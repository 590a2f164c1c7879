// Command loopdetect runs the routing-loop detector over a packet
// trace file (loopscope native format or libpcap with raw-IP link
// type) and prints the per-trace analysis: replica streams, merged
// loops, TTL-delta distribution, and the summary statistics the paper
// reports per trace.
//
// Usage:
//
//	loopdetect [flags] trace-file
//
// Examples:
//
//	loopdetect backbone1.lspt              # summary + merged loops
//	loopdetect -streams capture.pcap.gz    # every replica stream (gzip ok)
//	loopdetect -report backbone1.lspt      # full figure set for the trace
//	loopdetect -stream huge.pcap           # loops as they finalize, then the counters
//	loopdetect -workers 8 backbone1.lspt   # 8 parallel detection shards
//	loopdetect -json backbone1.lspt        # machine-readable output
//	loopdetect -format erf capture.erf     # DAG PoS records
//	loopdetect -extract 0 backbone1.lspt   # loop 0's evidence as a pcap
//	loopdetect -salvage damaged.pcap       # skip corrupt regions, keep going
//	loopdetect -validate capture.lspt      # reject structurally invalid traces
//	loopdetect -metrics-addr :9090 big.lspt  # live /metrics, /debug/vars, /debug/pprof
//	loopdetect -progress huge.pcap.gz      # periodic rate/ETA/skew line on stderr
//	cat capture.lspt | loopdetect -        # read the trace from stdin
//
// Every mode reads the trace once, record by record, and keeps none of
// it: memory follows the detector's undecided tail, not the file.
//
// A SIGINT (ctrl-C) stops ingestion cleanly: whatever was read so far
// is analyzed and printed as a partial result, and the process exits
// with status 3 to distinguish an interrupted run from success (0) and
// failure (1). A second SIGINT kills immediately.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/trace"
	"loopscope/pkg/loopscope"
)

func main() {
	var (
		showStreams = flag.Bool("streams", false, "dump every validated replica stream")
		streamMode  = flag.Bool("stream", false, "print loops as they finalize and end on the counters, instead of the report")
		jsonOut     = flag.Bool("json", false, "emit the analysis as JSON instead of text")
		format      = flag.String("format", "auto", "trace format: auto (sniff native/pcap), or erf (DAG PoS records, which have no magic to sniff)")
		report      = flag.Bool("report", false, "print the full per-trace report: every figure's series for this trace")
		extract     = flag.Int("extract", -1, "write loop N's evidence records (replicas + same-prefix context) as a pcap to -extract-out")
		extractOut  = flag.String("extract-out", "loop.pcap", "output file for -extract")
		salvage     = flag.Bool("salvage", false, "fault-tolerant ingestion: skip corrupt regions and resync on the next plausible record instead of aborting")
		maxDecode   = flag.Int("max-decode-errors", -1, "with -salvage, fail once this many corrupt regions have been skipped (<= 0: unlimited)")
		validate    = flag.Bool("validate", false, "check structural trace invariants (monotonic timestamps, caplen <= wirelen) during ingest and fail on violation")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "detection worker shards (1: sequential; not used by -stream)")
		metricsAddr = flag.String("metrics-addr", "", "serve live pipeline metrics over HTTP (/metrics, /debug/vars, /debug/pprof); a bare :port binds loopback only")
		progress    = flag.Bool("progress", false, "report ingest rate, percent done, ETA and shard skew on stderr every 2s while running")
		explain     = flag.String("explain", "", `print one loop's flight-recorder decision trail: a loop index, an event ID, or "all"`)
		explainSrc  = flag.String("explain-source", "", "source name mixed into event IDs by -explain; match the daemon's source name to look up journal IDs")
	)
	detector := core.BindFlags(flag.CommandLine)
	newLogger := obs.BindLogFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: loopdetect [flags] trace-file   (use - for stdin)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Diagnostics keep their historical `loopdetect: message` shape by
	// default (text format, no timestamp); results stay on stdout.
	var lerr error
	if logger, lerr = newLogger(obs.LogOptions{Prefix: "loopdetect", NoTimestamp: true}); lerr != nil {
		fmt.Fprintf(os.Stderr, "loopdetect: %v\n", lerr)
		os.Exit(2)
	}

	// SIGINT stops ingestion at the next record boundary; the partial
	// trace is analyzed and the exit status becomes 3. Restoring the
	// default handler after the first signal lets a second ctrl-C kill
	// a run that is stuck before the loop notices the flag.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		interrupted.Store(true)
		logger.Info("interrupt: finishing with the records read so far (^C again to kill)")
		signal.Stop(sigc)
	}()
	traceFormat = *format
	salvageMode = *salvage
	maxDecodeErrors = *maxDecode
	validateMode = *validate
	workerCount = *workers
	cfg := detector()
	// Observability: -metrics-addr and -progress turn instrumentation
	// on; -json does too, so its run section always carries stage
	// timings. With none of them reg stays nil and every layer runs on
	// the free no-op path.
	if *metricsAddr != "" || *progress || *jsonOut {
		reg = obs.NewRegistry()
	}
	var srv *obs.Server
	if *metricsAddr != "" {
		var err error
		if srv, err = obs.StartServer(*metricsAddr, reg); err != nil {
			logger.Error(err.Error())
			os.Exit(1)
		}
		logger.Info("serving metrics", "url", "http://"+srv.Addr()+"/metrics")
	}
	if *progress {
		prog = obs.NewProgress(reg, obs.ProgressOptions{})
		prog.Start()
	}

	explainSel, explainSource = *explain, *explainSrc
	err := dispatch(flag.Arg(0), cfg, *streamMode, *jsonOut, *report, *extract, *extractOut, *showStreams)

	// Shut the reporters down before exiting so the final progress
	// line lands and the listener closes cleanly.
	prog.Stop()
	if srv != nil {
		srv.Close()
	}
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	if interrupted.Load() {
		logger.Info("interrupted; results above cover the partial trace")
		os.Exit(3)
	}
}

// interrupted is set by the SIGINT handler; scan polls it at record
// granularity and stops cleanly.
var interrupted atomic.Bool

// dispatch routes to the selected mode; exactly one mode runs.
func dispatch(path string, cfg core.Config, streamMode, jsonOut, report bool, extract int, extractOut string, showStreams bool) error {
	switch {
	case explainSel != "":
		return runExplain(path, cfg, explainSel, explainSource, os.Stdout)
	case streamMode:
		return runStreaming(path, cfg)
	case jsonOut:
		return runJSON(path, cfg)
	case report:
		return runReport(path, cfg)
	case extract >= 0:
		return runExtract(path, cfg, extract, extractOut)
	}
	return run(path, cfg, showStreams, true)
}

// traceFormat is the -format flag value ("auto" or "erf").
var traceFormat = "auto"

// salvageMode, maxDecodeErrors, validateMode, workerCount, explainSel
// and explainSource mirror the -salvage, -max-decode-errors, -validate,
// -workers, -explain and -explain-source flags.
var (
	salvageMode     = false
	maxDecodeErrors = -1
	validateMode    = false
	workerCount     = 0
	explainSel      = ""
	explainSource   = ""
)

// logger carries the tool's stderr diagnostics (never results, which
// go to stdout). The default mirrors the historical plain
// `loopdetect: message` lines; -log-level and -log-format reshape it.
var logger = obs.NewLogger(obs.LogOptions{Prefix: "loopdetect", NoTimestamp: true})

// reg is the pipeline metrics registry, nil unless -metrics-addr,
// -progress or -json asked for instrumentation: every instrumented
// call site tolerates nil (the obs no-op contract), so the plain text
// modes pay nothing. prog is the live progress reporter, nil unless
// -progress.
var (
	reg  *obs.Registry
	prog *obs.Progress
)

// openTrace is the tool's single trace.Open call site: it translates
// the ingestion flags into OpenOptions. The returned *DecodeStats is
// non-nil only in salvage mode and fills in as the source is drained.
func openTrace(path string) (*trace.File, *trace.DecodeStats, error) {
	format := trace.FormatAuto
	if traceFormat == "erf" {
		format = trace.FormatERF
	}
	sp := reg.StartSpan("open")
	src, stats, err := trace.Open(path, trace.OpenOptions{
		Format:          format,
		Salvage:         salvageMode,
		MaxDecodeErrors: maxDecodeErrors,
		Metrics:         reg,
	})
	sp.End()
	if err == nil {
		prog.SetOffset(src.Progress())
	}
	return src, stats, err
}

// scanned is what one pass over a trace leaves behind: the detection
// result, the report if one was asked for, and a handful of tallies —
// nothing per record.
type scanned struct {
	meta trace.Meta
	res  *core.Result
	rep  *analysis.Report
	// dstats is the salvage pass's decode statistics, nil when the
	// trace was read strictly.
	dstats *trace.DecodeStats
	// gaps and lost sum the per-record capture-loss counters (the ERF
	// lctr): records preceded by a drop gap, and the packets the
	// capture card reported dropping.
	gaps, lost int
	// end is the last record's timestamp.
	end time.Duration
}

// scan is the tool's one pass over a trace, which every mode runs: open
// it, hand each record to the -validate check, the capture-loss tally,
// the report accumulator (when report is set) and the engine, and
// finish. The engine is the one -workers selects unless opts say
// otherwise. The ingestion policy flags apply here and nowhere else: in
// salvage mode corrupt regions are skipped, a trace that ends mid-record
// is analyzed up to the truncation point with a warning rather than
// thrown away, and on any other read error the salvage statistics so far
// go to stderr, so the operator sees how bad the damage was. A -validate
// failure does not stop the read — a read error further on outranks it.
// A worker panic inside the parallel engine comes back as an error
// wrapping the core worker-panic error rather than crashing the tool.
func scan(path string, cfg core.Config, report bool, opts ...core.Option) (*scanned, error) {
	src, dstats, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer trace.CloseSource(src)
	return scanSource(src, dstats, cfg, report, opts...)
}

// scanSource is scan over an open source; it holds the tool's single
// core.New call site.
func scanSource(src trace.Source, dstats *trace.DecodeStats, cfg core.Config, report bool, opts ...core.Option) (*scanned, error) {
	e, err := core.New(cfg, append([]core.Option{core.WithWorkers(workerCount), core.WithMetrics(reg)}, opts...)...)
	if err != nil {
		return nil, err
	}
	sc := &scanned{dstats: dstats}
	var acc *analysis.Accumulator
	if report {
		acc = analysis.NewAccumulator(src.Meta())
	}
	var (
		check   trace.Validator
		invalid error // the first -validate failure
		readErr error
		n       int
		rec     trace.Record
	)
	// Nothing here keeps a record past the next read (Engine.Observe
	// does not retain Data), so records are borrowed, not copied.
	sp := reg.StartSpan("ingest")
	for !interrupted.Load() {
		if readErr = src.Borrow(&rec); readErr != nil {
			break
		}
		if validateMode && invalid == nil {
			invalid = check.Check(rec)
		}
		if rec.Lost > 0 {
			sc.gaps++
			sc.lost += rec.Lost
		}
		if acc != nil {
			acc.Add(rec)
		}
		e.Observe(rec)
		sc.end = rec.Time
		n++
	}
	sp.End()
	sc.meta = src.Meta() // complete only now: pcap and ERF date the trace by their first record

	// Finish whatever happened: the parallel engine's workers wait on
	// their queues until it is.
	sp = reg.StartSpan("finish")
	if ef, ok := e.(core.ErrFinisher); ok {
		sc.res, err = ef.FinishErr()
	} else {
		sc.res = e.Finish()
	}
	sp.End()

	switch {
	case readErr == nil || errors.Is(readErr, io.EOF):
	case errors.Is(readErr, io.ErrUnexpectedEOF) && n > 0:
		logger.Warn("trace truncated mid-record; analyzing the partial trace", "records", n)
	default:
		if dstats != nil {
			fmt.Fprint(os.Stderr, renderDecodeStats(*dstats))
		}
		return nil, readErr
	}
	if invalid != nil {
		return nil, fmt.Errorf("validation failed: %w", invalid)
	}
	if err != nil {
		return nil, err
	}
	if acc != nil {
		sp = reg.StartSpan("analyze")
		sc.rep = acc.Finish(sc.res)
		sp.End()
	}
	return sc, nil
}

// runReport prints the paper's full figure set for one trace.
func runReport(path string, cfg core.Config) error {
	sc, err := scan(path, cfg, true)
	if err != nil {
		return err
	}
	res, rep, dstats := sc.res, sc.rep, sc.dstats
	reps := []*analysis.Report{rep}

	if dstats != nil {
		fmt.Print(renderDecodeStats(*dstats))
		fmt.Println()
	} else if sc.gaps > 0 {
		fmt.Printf("capture loss: %d gaps, %d packets reported lost by the capture card\n\n", sc.gaps, sc.lost)
	}

	for _, f := range analysis.Figures {
		fmt.Print(f.Text(reps, 30))
		fmt.Println()
	}

	split := res.SplitPersistence(sc.end, cfg.MergeWindow, time.Minute)
	fmt.Printf("persistence: %d transient, %d persistent loops\n",
		len(split.Transient), len(split.Persistent))
	if f := rep.ReservedICMPFraction(); f > 0 {
		fmt.Printf("anomaly: %.2f%% of ICMP uses reserved type fields\n", 100*f)
	}
	fmt.Printf("escapes: %d streams (%.1f%%)\n", rep.EscapedStreams, 100*rep.EscapeFraction())
	return nil
}

// runExtract writes one loop's evidence as a standalone pcap — the
// artifact to hand to a neighboring NOC. The loop is known only once
// the trace has been scanned, so its records are picked out in a second
// pass over the file.
func runExtract(path string, cfg core.Config, n int, outPath string) error {
	if st, err := os.Stat(path); path == "-" || (err == nil && !st.Mode().IsRegular()) {
		return errors.New("-extract needs a file it can read twice")
	}
	sc, err := scan(path, cfg, false)
	if err != nil {
		return err
	}
	res, meta := sc.res, sc.meta
	if n >= len(res.Loops) {
		return fmt.Errorf("loop %d does not exist (%d loops detected)", n, len(res.Loops))
	}
	l := res.Loops[n]
	src, _, err := openTrace(path)
	if err != nil {
		return err
	}
	defer trace.CloseSource(src)
	evidence, err := core.ExtractLoopSource(src, l, 5*time.Second)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) { // a truncated tail: scan has said so
		return err
	}

	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	w, err := trace.NewPcapWriter(out, meta)
	if err != nil {
		return err
	}
	for _, r := range evidence {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("loop %d (%v, %v..%v): %d evidence records -> %s\n",
		n, l.Prefix, l.Start.Round(time.Millisecond), l.End.Round(time.Millisecond),
		len(evidence), outPath)
	return nil
}

// jsonStream / jsonLoop / jsonResult are the machine-readable output
// schema; durations are nanoseconds.
type jsonStream struct {
	ID       int    `json:"id"`
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Protocol uint8  `json:"protocol"`
	Replicas int    `json:"replicas"`
	TTLDelta int    `json:"ttlDelta"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
	Escaped  bool   `json:"escaped"`
}

type jsonLoop struct {
	Prefix   string `json:"prefix"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
	Streams  []int  `json:"streamIds"`
	Replicas int    `json:"replicas"`
}

// jsonDecodeStats mirrors trace.DecodeStats for the -json output;
// present only when -salvage is active.
type jsonDecodeStats struct {
	Records       int   `json:"records"`
	Salvaged      int   `json:"salvaged"`
	Errors        int   `json:"errors"`
	Resyncs       int   `json:"resyncs"`
	BytesSkipped  int64 `json:"bytesSkipped"`
	TruncatedTail bool  `json:"truncatedTail"`
	LossEvents    int   `json:"lossEvents"`
	LostRecords   int   `json:"lostRecords"`
}

// jsonStageTiming is one pipeline stage's accumulated wall time in
// the run section, in first-start order.
type jsonStageTiming struct {
	Stage   string `json:"stage"`
	Runs    int64  `json:"runs"`
	TotalNs int64  `json:"totalNs"`
}

// jsonRun describes how the run itself went — the execution shape, as
// opposed to what was found in the trace.
type jsonRun struct {
	Workers int               `json:"workers"`
	WallNs  int64             `json:"wallNs"`
	Stages  []jsonStageTiming `json:"stages"`
}

type jsonResult struct {
	Link               string           `json:"link"`
	Packets            int              `json:"packets"`
	DurationNs         int64            `json:"durationNs"`
	AvgBandwidthMbps   float64          `json:"avgBandwidthMbps"`
	LoopedPackets      int              `json:"loopedPackets"`
	PairsDiscarded     int              `json:"pairsDiscarded"`
	SubnetInvalidated  int              `json:"subnetInvalidated"`
	CaptureLossGaps    int              `json:"captureLossGaps"`
	CaptureLossPackets int              `json:"captureLossPackets"`
	DecodeStats        *jsonDecodeStats `json:"decodeStats,omitempty"`
	Run                *jsonRun         `json:"run,omitempty"`
	// Analytics holds the same sketch-based distributions the daemon
	// serves at /api/v1/stats, computed by the identical code path —
	// an offline run over a trace and an online daemon fed the same
	// trace agree within the documented sketch error bound.
	Analytics *loopscope.Stats `json:"analytics,omitempty"`
	Streams   []jsonStream     `json:"streams"`
	Loops     []jsonLoop       `json:"loops"`
}

// runSection assembles the -json run section from the stage spans the
// instrumented pipeline recorded; nil when uninstrumented.
func runSection(start time.Time) *jsonRun {
	if reg == nil {
		return nil
	}
	r := &jsonRun{
		Workers: int(reg.Gauge(obs.MetricEngineWorkers).Value()), // what core.New chose for -workers
		WallNs:  time.Since(start).Nanoseconds(),
		Stages:  []jsonStageTiming{},
	}
	for _, st := range reg.StageTimings() {
		r.Stages = append(r.Stages, jsonStageTiming{
			Stage: st.Stage, Runs: st.Runs, TotalNs: st.Total.Nanoseconds(),
		})
	}
	return r
}

// runJSON emits the whole analysis as one JSON document on stdout,
// including a run section with per-stage timings (main guarantees the
// registry is live in JSON mode).
func runJSON(path string, cfg core.Config) error {
	start := time.Now()
	sc, err := scan(path, cfg, true)
	if err != nil {
		return err
	}
	res, rep, meta, dstats := sc.res, sc.rep, sc.meta, sc.dstats
	out := jsonResult{
		Link:               meta.Link,
		Packets:            rep.TotalPackets,
		DurationNs:         int64(rep.Duration),
		AvgBandwidthMbps:   rep.AvgBandwidthMbps,
		LoopedPackets:      rep.LoopedPackets,
		PairsDiscarded:     res.PairsDiscarded,
		SubnetInvalidated:  res.SubnetInvalidated,
		CaptureLossGaps:    sc.gaps,
		CaptureLossPackets: sc.lost,
		Streams:            []jsonStream{},
		Loops:              []jsonLoop{},
	}
	if dstats != nil {
		out.DecodeStats = &jsonDecodeStats{
			Records:       dstats.Records,
			Salvaged:      dstats.Salvaged,
			Errors:        dstats.Errors,
			Resyncs:       dstats.Resyncs,
			BytesSkipped:  dstats.BytesSkipped,
			TruncatedTail: dstats.TruncatedTail,
			LossEvents:    dstats.LossEvents,
			LostRecords:   dstats.LostRecords,
		}
	}
	out.Run = runSection(start)
	collector := analytics.NewCollector(analytics.Options{})
	collector.RecordResult(meta.Link, res)
	if st, err := collector.Query(analytics.Query{}); err == nil {
		out.Analytics = st
	}
	for _, s := range res.Streams {
		out.Streams = append(out.Streams, jsonStream{
			ID: s.ID, Src: s.Summary.Src.String(), Dst: s.Summary.Dst.String(),
			Protocol: s.Summary.Protocol, Replicas: s.Count(), TTLDelta: s.TTLDelta(),
			StartNs: int64(s.Start()), EndNs: int64(s.End()), Escaped: s.Escaped(),
		})
	}
	for _, l := range res.Loops {
		jl := jsonLoop{
			Prefix: l.Prefix.String(), StartNs: int64(l.Start), EndNs: int64(l.End),
			Replicas: l.Replicas(), Streams: []int{},
		}
		for _, s := range l.Streams {
			jl.Streams = append(jl.Streams, s.ID)
		}
		out.Loops = append(out.Loops, jl)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runStreaming prints each loop the moment it is final and ends on the
// detector's counters. It is an output choice, not a memory mode: every
// mode holds only the undecided tail of the trace.
func runStreaming(path string, cfg core.Config) error {
	loops := 0
	// One detector whatever -workers says: shards finalize loops on their
	// own clocks, and this mode promises them in the trace's order.
	sc, err := scan(path, cfg, false, core.WithWorkers(1), core.WithStreaming(func(l *core.Loop) {
		loops++
		fmt.Printf("loop %3d: %-18s  %v .. %v  (%v)  %d streams, %d replicas\n",
			loops, l.Prefix, l.Start.Round(time.Millisecond), l.End.Round(time.Millisecond),
			l.Duration().Round(time.Millisecond), len(l.Streams), l.Replicas())
	}))
	if err != nil {
		return err
	}
	res := sc.res
	fmt.Printf("\n%d packets, %d looped in %d streams, %d loops (pairs discarded %d, subnet-invalidated %d)\n",
		res.TotalPackets, res.LoopedPackets, len(res.Streams), loops,
		res.PairsDiscarded, res.SubnetInvalidated)
	if sc.dstats != nil {
		fmt.Print(renderDecodeStats(*sc.dstats))
	} else if sc.gaps > 0 {
		fmt.Printf("capture loss:    %d gaps, %d packets reported lost by the capture card\n", sc.gaps, sc.lost)
	}
	return nil
}

func run(path string, cfg core.Config, showStreams, showLoops bool) error {
	sc, err := scan(path, cfg, true)
	if err != nil {
		return err
	}
	res, rep, meta, dstats := sc.res, sc.rep, sc.meta, sc.dstats

	fmt.Printf("trace %s: %d packets over %v (%.1f Mbps avg)\n",
		meta.Link, rep.TotalPackets, rep.Duration.Round(time.Second), rep.AvgBandwidthMbps)
	if dstats != nil {
		fmt.Print(renderDecodeStats(*dstats))
	} else if sc.gaps > 0 {
		fmt.Printf("capture loss:    %d gaps, %d packets reported lost by the capture card\n", sc.gaps, sc.lost)
	}
	fmt.Printf("replica streams: %d (pairs discarded %d, subnet-invalidated %d)\n",
		rep.ReplicaStreams, res.PairsDiscarded, res.SubnetInvalidated)
	fmt.Printf("routing loops:   %d\n", rep.RoutingLoops)
	fmt.Printf("looped packets:  %d (%.5f%% of traffic)\n",
		rep.LoopedPackets, 100*float64(rep.LoopedPackets)/float64(max(rep.TotalPackets, 1)))
	if rep.ReplicaStreams > 0 {
		fmt.Printf("escaped streams: %d (%.1f%%)\n", rep.EscapedStreams, 100*rep.EscapeFraction())
		fmt.Println()
		fmt.Print(analysis.RenderTTLDelta(rep))
	}

	if showStreams {
		fmt.Println()
		for _, s := range res.Streams {
			fmt.Printf("stream %4d: %s -> %s proto %d  %3d replicas  delta %d  span %v..%v  spacing %v\n",
				s.ID, s.Summary.Src, s.Summary.Dst, s.Summary.Protocol,
				s.Count(), s.TTLDelta(),
				s.Start().Round(time.Millisecond), s.End().Round(time.Millisecond),
				s.MeanSpacing().Round(10*time.Microsecond))
		}
	}
	if showLoops {
		fmt.Println()
		for i, l := range res.Loops {
			fmt.Printf("loop %3d: %-18s  %v .. %v  (%v)  %d streams, %d replicas\n",
				i, l.Prefix, l.Start.Round(time.Millisecond), l.End.Round(time.Millisecond),
				l.Duration().Round(time.Millisecond), len(l.Streams), l.Replicas())
		}
	}
	return nil
}

// renderDecodeStats formats the salvage decode-stats section.
func renderDecodeStats(s trace.DecodeStats) string {
	tail := "intact"
	if s.TruncatedTail {
		tail = "truncated"
	}
	out := fmt.Sprintf("decode stats:    %d records (%d salvaged), %d corrupt regions, %d resyncs, %d bytes skipped, tail %s\n",
		s.Records, s.Salvaged, s.Errors, s.Resyncs, s.BytesSkipped, tail)
	if s.LossEvents > 0 {
		out += fmt.Sprintf("capture loss:    %d gaps, %d packets reported lost by the capture card\n",
			s.LossEvents, s.LostRecords)
	}
	return out
}
