package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"loopscope/internal/agg"
	"loopscope/internal/analysis"
	"loopscope/internal/analytics"
	"loopscope/internal/chaos"
	"loopscope/internal/core"
	"loopscope/internal/fibscan"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/packet"
	"loopscope/internal/serve"
	"loopscope/internal/trace"
	"loopscope/pkg/loopscope"
)

// spanBatch is how many per-record calls share one span: a span per
// record would cost more than the call it times.
const spanBatch = 4096

// salvageProbeRecords bounds the damaged copy the salvage probe reads.
const salvageProbeRecords = 65536

// heapSampleEvery is the record interval at which the streaming
// pipeline samples HeapInuse.
const heapSampleEvery = 1 << 18

// tracer is the state of one traced run: the span recorder, the
// explicitly set metrics, and a scratch directory.
type tracer struct {
	rec *recorder
	dir string
	set map[string]sample
	// reg receives the webhook sink's counters, wherever one is built,
	// so drops can be read back.
	reg *obs.Registry
	err error
}

func (t *tracer) put(name, unit string, v float64, n int) {
	t.set[name] = sample{Unit: unit, N: n, Min: v, Q1: v, Median: v, Q3: v, Max: v}
}

// fail keeps the first error a span body hit; span bodies cannot
// return one.
func (t *tracer) fail(err error) {
	if err != nil && t.err == nil {
		t.err = err
	}
}

func detectorConfig(mergeWindow time.Duration) core.Config {
	cfg := core.DefaultConfig()
	if mergeWindow > 0 {
		cfg.MergeWindow = mergeWindow
	}
	return cfg
}

// detected is what a trace pipeline found, for checking against the
// binary's output and for the regime metrics.
type detected struct {
	Loops  []*core.Loop
	Total  int
	Looped int
}

func (d detected) rows() []loopRow {
	rows := make([]loopRow, 0, len(d.Loops))
	for _, l := range d.Loops {
		r := loopRow{Prefix: l.Prefix.String(), StartNs: int64(l.Start), EndNs: int64(l.End),
			Streams: len(l.Streams), Replicas: l.Replicas()}
		if len(l.Streams) > 0 {
			r.TTLDelta = l.Streams[0].TTLDelta()
		}
		rows = append(rows, r)
	}
	return rows
}

// readNative times trace.Open + Next to EOF the way loopdetect's batch
// modes read: every record kept, the slice grown by append.
func (t *tracer) readNative(path string, reg *obs.Registry) ([]trace.Record, trace.Meta) {
	var recs []trace.Record
	var meta trace.Meta
	t.rec.span("trace.read_native", func() int64 {
		src, _, err := trace.Open(path, trace.OpenOptions{Metrics: reg})
		if err != nil {
			t.fail(err)
			return 0
		}
		defer trace.CloseSource(src)
		meta = src.Meta()
		recs, err = trace.ReadAll(src)
		t.fail(err)
		return int64(len(recs))
	})
	return recs, meta
}

// pipelineBatch recreates `loopdetect -workers N -json`: read all,
// detect, analyze, feed the analytics collector. -json switches the
// binary's instrumentation on, so the pipeline carries a registry too.
func (t *tracer) pipelineBatch(path string, workers int, mergeWindow time.Duration) detected {
	reg := obs.NewRegistry()
	recs, meta := t.readNative(path, reg)
	name := "core.batch"
	if workers > 1 {
		name = "core.parallel"
	}
	e, err := core.New(detectorConfig(mergeWindow), core.WithWorkers(workers), core.WithMetrics(reg))
	if err != nil {
		t.fail(err)
		return detected{}
	}
	t.rec.span(name+"_observe", func() int64 {
		if bo, ok := e.(core.BatchObserver); ok {
			bo.ObserveBatch(recs)
		} else {
			for _, r := range recs {
				e.Observe(r)
			}
		}
		return int64(len(recs))
	})
	var res *core.Result
	t.rec.span(name+"_finish", func() int64 {
		if ef, ok := e.(core.ErrFinisher); ok {
			res, err = ef.FinishErr()
			t.fail(err)
		} else {
			res = e.Finish()
		}
		return int64(len(recs))
	})
	if res == nil {
		return detected{}
	}
	t.rec.span("analysis.analyze", func() int64 {
		analysis.Analyze(meta, recs, res)
		return int64(len(recs))
	})
	collector := analytics.NewCollector(analytics.Options{})
	t.rec.span("analytics.record_loop", func() int64 {
		collector.RecordResult(meta.Link, res)
		return int64(len(res.Loops))
	})
	t.rec.span("analytics.query", func() int64 {
		_, err := collector.Query(analytics.Query{})
		t.fail(err)
		return 1
	})
	return detected{Loops: res.Loops, Total: res.TotalPackets, Looped: res.LoopedPackets}
}

// pipelineStream recreates `loopdetect -stream`: one record read, one
// record observed, memory bounded by the detector's horizon.
func (t *tracer) pipelineStream(path string, mergeWindow time.Duration) detected {
	src, _, err := trace.Open(path, trace.OpenOptions{})
	if err != nil {
		t.fail(err)
		return detected{}
	}
	defer trace.CloseSource(src)
	e, err := core.New(detectorConfig(mergeWindow), core.WithStreaming(nil))
	if err != nil {
		t.fail(err)
		return detected{}
	}
	var peakHeap uint64
	total, sinceSample := 0, 0
	batch := make([]trace.Record, 0, spanBatch)
	for eof := false; !eof; {
		batch = batch[:0]
		t.rec.span("trace.read_native", func() int64 {
			for len(batch) < spanBatch {
				r, err := src.Next()
				if err != nil {
					eof = true
					if !errors.Is(err, io.EOF) {
						t.fail(err)
					}
					break
				}
				batch = append(batch, r)
			}
			return int64(len(batch))
		})
		t.rec.span("core.stream_observe", func() int64 {
			for _, r := range batch {
				e.Observe(r)
			}
			return int64(len(batch))
		})
		total += len(batch)
		if sinceSample += len(batch); sinceSample >= heapSampleEvery || eof {
			sinceSample = 0
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peakHeap = max(peakHeap, ms.HeapInuse)
		}
	}
	var res *core.Result
	t.rec.span("core.stream_finish", func() int64 {
		res = e.Finish()
		return int64(total)
	})
	t.put("core.stream.peak_heap_mb", "MiB", float64(peakHeap)/(1<<20), total/heapSampleEvery+1)
	return detected{Loops: res.Loops, Total: res.TotalPackets, Looped: res.LoopedPackets}
}

// eventFrom renders a loop the way the daemon's source does.
func eventFrom(l *core.Loop, seq int) serve.Event {
	ev := serve.Event{
		Source: "trace", Vantage: fleetVantage, Prefix: l.Prefix.String(), Seq: seq,
		StartNs: int64(l.Start), EndNs: int64(l.End), DurationNs: int64(l.End - l.Start),
		Streams: len(l.Streams), Replicas: l.Replicas(), EmittedAtNs: time.Now().UnixNano(),
	}
	if len(l.Streams) > 0 {
		ev.TTLDelta = l.Streams[0].TTLDelta()
	}
	ev.ID = flight.LoopID(ev.Source, ev.Prefix, ev.StartNs)
	ev.Prov = ev.Prov.Stamp(provenance.HopDetected, provenance.Now())
	return ev
}

// loopbackAgg is an in-process aggregator behind a real loopback HTTP
// listener.
type loopbackAgg struct {
	agg *agg.Aggregator
	srv *httptest.Server
}

func newLoopbackAgg(journal string) (*loopbackAgg, error) {
	a, err := agg.New(agg.Config{Journal: journal})
	if err != nil {
		return nil, err
	}
	return &loopbackAgg{agg: a, srv: httptest.NewServer(a.Handler())}, nil
}

func (l *loopbackAgg) ingestURL() string { return l.srv.URL + "/api/v1/ingest" }

func (l *loopbackAgg) close() error {
	l.srv.Close()
	return l.agg.Close()
}

// pipelineFleet recreates loopscoped -tail … -journal -checkpoint
// -webhook against an in-process aggregator: tail reader, session, and
// per event (as child spans of the observe call that emitted it) the
// analytics feed and the journal, ring and webhook sinks.
func (t *tracer) pipelineFleet(ctx context.Context, path string, records int, mergeWindow time.Duration) detected {
	dir := filepath.Join(t.dir, "fleet-inproc")
	t.fail(os.RemoveAll(dir))
	t.fail(os.MkdirAll(dir, 0o755))
	la, err := newLoopbackAgg(filepath.Join(dir, "agg.jsonl"))
	if err != nil {
		t.fail(err)
		return detected{}
	}
	defer la.close()
	journal, err := serve.NewJournal(serve.JournalOptions{Path: filepath.Join(dir, "journal.jsonl"), MaxBytes: 64 << 20})
	if err != nil {
		t.fail(err)
		return detected{}
	}
	ring := serve.NewRing(1024)
	webhook := serve.NewWebhook(serve.WebhookOptions{URL: la.ingestURL(), Metrics: t.reg})
	collector := analytics.NewCollector(analytics.Options{})

	var out detected
	cfg := detectorConfig(mergeWindow)
	cfg.MaxActiveStreams = 65536 // loopscoped's -max-streams default
	sess, err := core.NewSession(cfg, func(se core.SessionEvent) {
		out.Loops = append(out.Loops, se.Loop)
		ev := eventFrom(se.Loop, se.Seq)
		t.rec.span("analytics.record_loop", func() int64 {
			collector.RecordLoop(ev.Source, analytics.ObsFromLoop(ev.ID, se.Loop))
			return 1
		})
		ev.Prov = ev.Prov.Stamp(provenance.HopPublished, provenance.Now())
		t.rec.span("serve.journal_publish", func() int64 { journal.Publish(ev); return 1 })
		ev.Prov = ev.Prov.Stamp(provenance.HopJournaled, provenance.Now())
		t.rec.span("serve.ring_publish", func() int64 { ring.Publish(ev); return 1 })
		t.rec.span("serve.webhook_publish", func() int64 { webhook.Publish(ev); return 1 })
	})
	if err != nil {
		t.fail(err)
		return detected{}
	}
	tr, err := trace.OpenTail(path, trace.TailOptions{Poll: fleetPoll})
	if err != nil {
		t.fail(err)
		return detected{}
	}
	defer tr.Close()
	batch := make([]trace.Record, 0, spanBatch)
	for read := 0; read < records && t.err == nil; {
		batch = batch[:0]
		n := min(spanBatch, records-read)
		t.rec.span("trace.read_tail", func() int64 {
			for len(batch) < n {
				r, err := tr.Next(ctx)
				if err != nil {
					t.fail(err)
					break
				}
				batch = append(batch, r)
			}
			return int64(len(batch))
		})
		t.rec.span("core.session_observe", func() int64 {
			for _, r := range batch {
				sess.Observe(r)
			}
			return int64(len(batch))
		})
		read += n
	}
	var stats core.StreamStats
	t.rec.span("core.session_observe", func() int64 { stats = sess.Complete(); return 0 })
	t.rec.span("serve.checkpoint_save", func() int64 {
		cp := serve.Checkpoint{Sources: map[string]serve.SourceCheckpoint{"trace": {
			Kind: "tail", Path: path, FileID: tr.FileID(), Records: tr.Records(), Offset: tr.Offset(),
			Emitted: sess.Emitted(), HighWaterNs: int64(sess.HighWater()),
		}}}
		t.fail(cp.Save(filepath.Join(dir, "checkpoint.json")))
		return 1
	})
	// Close waits for the delivery worker to drain the queue; the wait
	// belongs to the webhook sink, whose span it extends with no new
	// events.
	t.rec.span("serve.webhook_publish", func() int64 {
		t.fail(webhook.Close(ctx))
		return 0
	})
	t.fail(journal.Close(ctx))
	if obsv, _, _, _ := la.agg.Counts(); int(obsv) != len(out.Loops) {
		t.fail(fmt.Errorf("in-process aggregator saw %d of %d events", obsv, len(out.Loops)))
	}
	out.Total, out.Looped = stats.TotalPackets, stats.LoopedPackets
	return out
}

// pipelineFIB recreates `fibscan <file>`.
func (t *tracer) pipelineFIB(path string) [][]string {
	var file *fibscan.SnapshotFile
	t.rec.span("fibscan.read_file", func() int64 {
		var err error
		file, err = fibscan.ReadFile(path)
		if err != nil {
			t.fail(err)
			return 0
		}
		return int64(len(file.Snapshots))
	})
	if file == nil {
		return nil
	}
	var reports []*fibscan.Report
	t.rec.span("fibscan.scan_timeline", func() int64 {
		reports = fibscan.ScanTimeline(file.Snapshots)
		return int64(len(reports))
	})
	t.rec.span("fibscan.collate", func() int64 {
		fibscan.Collate(reports, 2*time.Second)
		return 1
	})
	looped := make([][]string, len(reports))
	for i, rep := range reports {
		for _, c := range rep.Cycles {
			for _, p := range c.Prefixes {
				looped[i] = append(looped[i], p.String())
			}
		}
	}
	if len(reports) > 0 {
		t.put("fibscan.atoms", "count", float64(reports[0].Atoms), len(reports))
	}
	return looped
}

// probeSet is the fixed-shape input every traced run measures the
// layers its own pipeline does not cross on: a small loopstorm capture
// and a small timeline, generated from the run's seed.
type probeSet struct {
	Trace *traceInput
	FIB   *fibInput
}

// probe measures every layer the pipeline left without a span.
func (t *tracer) probe(ctx context.Context, ps probeSet) {
	rec := t.rec
	mergeWindow := ps.Trace.MergeWindow
	cfg := detectorConfig(mergeWindow)
	path := ps.Trace.Path

	var recs []trace.Record
	var meta trace.Meta
	if !rec.has("trace.read_native") {
		recs, meta = t.readNative(path, nil)
	} else {
		src, _, err := trace.Open(path, trace.OpenOptions{})
		if err != nil {
			t.fail(err)
			return
		}
		meta = src.Meta()
		recs, err = trace.ReadAll(src)
		trace.CloseSource(src)
		t.fail(err)
	}
	if t.err != nil {
		return
	}
	n := int64(len(recs))

	// Re-encoded copies of the same records, read back through
	// trace.Open.
	readBack := func(name, file string, opts trace.OpenOptions, encode func(io.Writer) error) *trace.DecodeStats {
		if rec.has(name) {
			return nil
		}
		p := filepath.Join(t.dir, file)
		f, err := os.Create(p)
		if err != nil {
			t.fail(err)
			return nil
		}
		err = encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.fail(err)
			return nil
		}
		var stats *trace.DecodeStats
		rec.span(name, func() int64 {
			src, st, err := trace.Open(p, opts)
			if err != nil {
				t.fail(err)
				return 0
			}
			defer trace.CloseSource(src)
			got, err := trace.ReadAll(src)
			t.fail(err)
			stats = st
			return int64(len(got))
		})
		return stats
	}
	writeAll := func(w interface {
		Write(trace.Record) error
		Flush() error
	}) error {
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		return w.Flush()
	}
	readBack("trace.read_pcap", "probe.pcap", trace.OpenOptions{}, func(w io.Writer) error {
		pw, err := trace.NewPcapWriter(w, meta)
		if err != nil {
			return err
		}
		return writeAll(pw)
	})
	readBack("trace.read_erf", "probe.erf", trace.OpenOptions{Format: trace.FormatERF}, func(w io.Writer) error {
		ew, err := trace.NewERFWriter(w, meta)
		if err != nil {
			return err
		}
		return writeAll(ew)
	})
	native, err := os.ReadFile(path)
	if err != nil {
		t.fail(err)
		return
	}
	readBack("trace.read_gzip", "probe.lspt.gz", trace.OpenOptions{}, func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		if _, err := gz.Write(native); err != nil {
			return err
		}
		return gz.Close()
	})
	// The damaged copy must outgrow SalvageReader's 2 MiB window for its
	// per-record re-buffering (about 75 µs at this commit) to show, but
	// not by much, or the probe takes longer than everything else.
	salvaged := recs[:min(len(recs), salvageProbeRecords)]
	stats := readBack("trace.read_salvage", "probe-damaged.lspt", trace.OpenOptions{Salvage: true}, func(w io.Writer) error {
		var image bytes.Buffer
		nw, err := trace.NewWriter(&image, meta)
		if err != nil {
			return err
		}
		for _, r := range salvaged {
			if err := nw.Write(r); err != nil {
				return err
			}
		}
		if err := nw.Flush(); err != nil {
			return err
		}
		damaged, _ := chaos.CorruptBytes(image.Bytes(), chaos.ByteFaults{
			Seed: 1, BitFlips: 8, GarbageBursts: 8, BurstLen: 64,
			Protect: []chaos.Range{{Off: 0, Len: int64(18 + len(meta.Link))}},
		})
		_, err = w.Write(damaged)
		return err
	})
	if stats != nil {
		t.put("trace.read_salvage.recovered_ratio", "ratio", float64(stats.Records)/float64(len(salvaged)), len(salvaged))
	}
	if !rec.has("trace.read_tail") {
		rec.span("trace.read_tail", func() int64 {
			tr, err := trace.OpenTail(path, trace.TailOptions{Poll: fleetPoll})
			if err != nil {
				t.fail(err)
				return 0
			}
			defer tr.Close()
			for i := int64(0); i < n; i++ {
				if _, err := tr.Next(ctx); err != nil {
					t.fail(err)
					return i
				}
			}
			return n
		})
	}
	if !rec.has("trace.batcher") {
		rec.span("trace.batcher", func() int64 {
			b := trace.NewBatcher(trace.NewSliceSource(meta, recs), 0)
			var got int64
			for {
				batch, err := b.Next()
				got += int64(len(batch))
				if err != nil {
					return got
				}
			}
		})
	}
	if !rec.has("packet.decode") {
		rec.span("packet.decode", func() int64 {
			for _, r := range recs {
				if _, err := packet.Decode(r.Data); err != nil {
					t.fail(err)
				}
			}
			return n
		})
	}

	// Detection engines over the pre-read records.
	var res *core.Result
	if !rec.has("core.batch_observe") {
		d := core.NewDetector(cfg)
		rec.span("core.batch_observe", func() int64 {
			for _, r := range recs {
				d.Observe(r)
			}
			return n
		})
		rec.span("core.batch_finish", func() int64 { res = d.Finish(); return n })
	} else {
		res = core.DetectRecords(recs, cfg)
	}
	if !rec.has("core.parallel_observe") {
		pe, err := core.New(cfg, core.WithWorkers(2))
		if err != nil {
			t.fail(err)
			return
		}
		rec.span("core.parallel_observe", func() int64 {
			pe.(core.BatchObserver).ObserveBatch(recs)
			return n
		})
		rec.span("core.parallel_finish", func() int64 {
			_, err := pe.(core.ErrFinisher).FinishErr()
			t.fail(err)
			return n
		})
	}
	if !rec.has("core.stream_observe") {
		sd := core.NewStreamDetector(cfg, nil)
		var peak uint64
		for off := 0; off < len(recs); off += heapSampleEvery {
			chunk := recs[off:min(off+heapSampleEvery, len(recs))]
			rec.span("core.stream_observe", func() int64 {
				for _, r := range chunk {
					sd.Observe(r)
				}
				return int64(len(chunk))
			})
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
		}
		rec.span("core.stream_finish", func() int64 { sd.Finish(); return n })
		t.put("core.stream.peak_heap_mb", "MiB", float64(peak)/(1<<20), len(recs)/heapSampleEvery+1)
	}
	if !rec.has("core.session_observe") {
		sess, err := core.NewSession(cfg, nil)
		if err != nil {
			t.fail(err)
			return
		}
		rec.span("core.session_observe", func() int64 {
			for _, r := range recs {
				sess.Observe(r)
			}
			sess.Complete()
			return n
		})
	}
	if !rec.has("analysis.analyze") {
		rec.span("analysis.analyze", func() int64 {
			analysis.Analyze(meta, recs, res)
			return n
		})
	}

	// Event layers over the probe capture's loops.
	events := make([]serve.Event, len(res.Loops))
	for i, l := range res.Loops {
		events[i] = eventFrom(l, i)
	}
	ne := int64(len(events))
	if ne == 0 {
		t.fail(fmt.Errorf("probe capture %s has no loops to publish", path))
		return
	}
	collector := analytics.NewCollector(analytics.Options{})
	if !rec.has("analytics.record_loop") {
		rec.span("analytics.record_loop", func() int64 {
			for i, l := range res.Loops {
				collector.RecordLoop("trace", analytics.ObsFromLoop(events[i].ID, l))
			}
			return ne
		})
	} else {
		collector.RecordResult("trace", res)
	}
	if !rec.has("analytics.query") {
		rec.span("analytics.query", func() int64 {
			_, err := collector.Query(analytics.Query{})
			t.fail(err)
			return 1
		})
	}
	rec.span("analytics.snapshot", func() int64 {
		_, err := collector.Snapshot()
		t.fail(err)
		return ne
	})
	rec.span("provenance.stamp", func() int64 {
		for range events {
			var r *provenance.Record
			for _, hop := range []string{provenance.HopDetected, provenance.HopPublished, provenance.HopJournaled,
				provenance.HopWebhookSent, provenance.HopIngested, provenance.HopClustered} {
				r = r.Stamp(hop, provenance.Now())
			}
		}
		return ne
	})
	publishAll := func(name string, sink serve.Sink, evs []serve.Event) {
		rec.span(name, func() int64 {
			for _, ev := range evs {
				sink.Publish(ev)
			}
			return int64(len(evs))
		})
	}
	if !rec.has("serve.journal_publish") {
		j, err := serve.NewJournal(serve.JournalOptions{Path: filepath.Join(t.dir, "probe-journal.jsonl")})
		if err != nil {
			t.fail(err)
			return
		}
		publishAll("serve.journal_publish", j, events)
		t.fail(j.Close(ctx))
	}
	// An fsync per event costs milliseconds on a real disk; a slice of
	// the events is enough to price it.
	jf, err := serve.NewJournal(serve.JournalOptions{Path: filepath.Join(t.dir, "probe-journal-fsync.jsonl"), Fsync: serve.FsyncAlways})
	if err != nil {
		t.fail(err)
		return
	}
	publishAll("serve.journal_publish_fsync", jf, events[:min(len(events), 32)])
	t.fail(jf.Close(ctx))
	if !rec.has("serve.ring_publish") {
		publishAll("serve.ring_publish", serve.NewRing(1024), events)
	}
	if !rec.has("serve.webhook_publish") {
		sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
		}))
		wh := serve.NewWebhook(serve.WebhookOptions{URL: sink.URL, Metrics: t.reg})
		rec.span("serve.webhook_publish", func() int64 {
			for _, ev := range events {
				wh.Publish(ev)
			}
			t.fail(wh.Close(ctx))
			return ne
		})
		sink.Close()
	}
	dropped := t.reg.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "webhook")).Value()
	t.put("serve.webhook.dropped", "count", float64(dropped), int(ne))
	if !rec.has("serve.checkpoint_save") {
		rec.span("serve.checkpoint_save", func() int64 {
			cp := serve.Checkpoint{Sources: map[string]serve.SourceCheckpoint{"trace": {
				Kind: "tail", Path: path, Records: n, Offset: ps.Trace.Bytes, Emitted: int(ne),
			}}}
			t.fail(cp.Save(filepath.Join(t.dir, "probe-checkpoint.json")))
			return 1
		})
	}

	// Aggregator: the same observations fresh, then again as
	// duplicates, then over HTTP into a second aggregator.
	payloads := make([][]byte, len(events))
	observations := make([]agg.Observation, len(events))
	for i, ev := range events {
		payloads[i], err = json.Marshal(ev)
		if err != nil {
			t.fail(err)
			return
		}
		var wire loopscope.Event
		if err := json.Unmarshal(payloads[i], &wire); err != nil {
			t.fail(err)
			return
		}
		observations[i] = agg.Observation{Transport: agg.TransportPush, Event: wire}
	}
	a, err := agg.New(agg.Config{Journal: filepath.Join(t.dir, "probe-agg.jsonl")})
	if err != nil {
		t.fail(err)
		return
	}
	for _, name := range []string{"agg.ingest_fresh", "agg.ingest_dup"} {
		rec.span(name, func() int64 {
			for _, o := range observations {
				_, err := a.Ingest(o)
				t.fail(err)
			}
			return ne
		})
	}
	rec.span("agg.fleet_loops", func() int64 { return int64(len(a.FleetLoops())) })
	t.fail(a.Close())
	la, err := newLoopbackAgg("")
	if err != nil {
		t.fail(err)
		return
	}
	rec.span("agg.ingest_http", func() int64 {
		for _, body := range payloads {
			resp, err := http.Post(la.ingestURL(), "application/json", bytes.NewReader(body))
			if err != nil {
				t.fail(err)
				return 0
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return ne
	})
	t.fail(la.close())

	// FIB layers over the probe timeline.
	if !rec.has("fibscan.read_file") {
		t.pipelineFIB(ps.FIB.Path)
	}
	file, err := fibscan.ReadFile(ps.FIB.Path)
	if err != nil {
		t.fail(err)
		return
	}
	rec.span("fibscan.scan", func() int64 {
		fibscan.Scan(&file.Snapshots[0])
		return 1
	})
}
