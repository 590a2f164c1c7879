// Command tracegen synthesizes a packet trace directly from a loop
// script — no network simulation — which is the fast way to produce
// large traces with exactly known loop ground truth for detector
// stress-testing.
//
// The -chaos-* flags degrade the output through the fault injectors
// in internal/chaos, producing traces with exactly known damage:
// record-level faults (drops, duplicates, snapshot truncation,
// reordering) yield structurally valid but lossy captures, while
// byte-level faults (bit flips, garbage bursts, tail truncation)
// yield damaged files for exercising `loopdetect -salvage`.
//
// Usage:
//
//	tracegen [flags] output-file
//
// Examples:
//
//	tracegen -duration 10m -pps 20000 -loops 25 big.lspt
//	tracegen -chaos-bursts 20 -chaos-tail 100 damaged.lspt
//	tracegen -chaos-drop 0.01 -chaos-dup 0.001 lossy.lspt
//	tracegen -live-every 500 grow.lspt   # growing capture for loopscoped -tail
package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"loopscope/internal/chaos"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// genConfig collects the generation options.
type genConfig struct {
	duration time.Duration
	pps      float64
	loops    int
	prefixes int
	seed     uint64
	pcap     bool
	gz       bool

	recordFaults chaos.RecordFaults
	byteFaults   chaos.ByteFaults

	liveEvery int
	liveDelay time.Duration
}

// live reports whether growing-file emulation is on.
func (c *genConfig) live() bool { return c.liveEvery > 0 }

// hasRecordFaults reports whether any record-level fault is enabled.
func (c *genConfig) hasRecordFaults() bool {
	f := c.recordFaults
	return f.Drop > 0 || f.Dup > 0 || f.Truncate > 0 || f.Reorder > 0
}

// hasByteFaults reports whether any byte-level fault is enabled.
func (c *genConfig) hasByteFaults() bool {
	f := c.byteFaults
	return f.BitFlips > 0 || f.GarbageBursts > 0 || f.TruncateTail > 0
}

func main() {
	var cfg genConfig
	flag.DurationVar(&cfg.duration, "duration", 5*time.Minute, "trace length")
	flag.Float64Var(&cfg.pps, "pps", 5000, "background packet rate")
	flag.IntVar(&cfg.loops, "loops", 10, "number of scripted loops")
	flag.IntVar(&cfg.prefixes, "prefixes", 256, "number of destination /24s")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.BoolVar(&cfg.pcap, "pcap", false, "write pcap instead of the native format")
	flag.BoolVar(&cfg.gz, "gzip", false, "gzip-compress the output")

	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the fault injectors")
	flag.Float64Var(&cfg.recordFaults.Drop, "chaos-drop", 0, "probability a record is dropped (simulated capture loss)")
	flag.Float64Var(&cfg.recordFaults.Dup, "chaos-dup", 0, "probability a record is duplicated")
	flag.Float64Var(&cfg.recordFaults.Truncate, "chaos-truncate", 0, "probability a record's snapshot is cut short")
	flag.Float64Var(&cfg.recordFaults.Reorder, "chaos-reorder", 0, "probability a record swaps with its successor")
	flag.IntVar(&cfg.byteFaults.BitFlips, "chaos-bitflips", 0, "number of single-bit flips in the encoded file")
	flag.IntVar(&cfg.byteFaults.GarbageBursts, "chaos-bursts", 0, "number of garbage bursts in the encoded file")
	flag.IntVar(&cfg.byteFaults.BurstLen, "chaos-burst-len", 64, "maximum garbage burst length in bytes")
	flag.IntVar(&cfg.byteFaults.TruncateTail, "chaos-tail", 0, "bytes cut from the end of the encoded file")
	flag.IntVar(&cfg.liveEvery, "live-every", 0, "emulate a live capture: flush the output file every N records (0: write all at once); pair with loopscoped -tail")
	flag.DurationVar(&cfg.liveDelay, "live-delay", 100*time.Millisecond, "with -live-every, pause between flushed batches")
	flag.Parse()
	cfg.recordFaults.Seed = *chaosSeed
	cfg.recordFaults.CountLoss = true
	cfg.byteFaults.Seed = *chaosSeed

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracegen [flags] output-file")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if cfg.live() {
		// Live emulation appends finished records straight to the
		// file; both gzip (not incrementally readable) and byte-level
		// faults (need the whole encoded image in hand) contradict
		// that.
		if cfg.gz {
			fmt.Fprintln(os.Stderr, "tracegen: -live-every is incompatible with -gzip")
			os.Exit(2)
		}
		if cfg.hasByteFaults() {
			fmt.Fprintln(os.Stderr, "tracegen: -live-every is incompatible with byte-level chaos faults (-chaos-bitflips/-chaos-bursts/-chaos-tail)")
			os.Exit(2)
		}
	}
	if err := run(flag.Arg(0), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(path string, cfg genConfig) error {
	rng := stats.NewRNG(cfg.seed)

	dests := make([]routing.Prefix, 0, cfg.prefixes)
	for i := 0; i < cfg.prefixes; i++ {
		dests = append(dests, routing.NewPrefix(
			packet.AddrFrom(byte(192+i%16), byte(10+i/256), byte(i%256), 0), 24))
	}

	scfg := traffic.SynthConfig{
		Link:             "tracegen",
		Duration:         cfg.duration,
		PacketsPerSecond: cfg.pps,
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		HopsMin:          3,
		HopsMax:          10,
	}
	deltas := []int{2, 2, 2, 2, 3, 3, 4, 6}
	for i := 0; i < cfg.loops; i++ {
		start := time.Duration(rng.Int63n(int64(cfg.duration * 8 / 10)))
		scfg.Loops = append(scfg.Loops, traffic.LoopSpec{
			Prefix:     dests[rng.Intn(len(dests))],
			Start:      start,
			Duration:   time.Duration(200+rng.Intn(8000)) * time.Millisecond,
			TTLDelta:   deltas[rng.Intn(len(deltas))],
			Revolution: time.Duration(1500+rng.Intn(6000)) * time.Microsecond,
		})
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// Records go from the synthesizer straight to the file, through gzip
	// if asked, so a trace of any length is written in constant memory.
	// Only byte-level faults need the encoded image in hand before it
	// reaches the file (and before gzip, which would otherwise turn one
	// flipped bit into an undecodable stream).
	var dst io.Writer = f
	var gzw *gzip.Writer
	if cfg.gz {
		gzw = gzip.NewWriter(f)
		dst = gzw
	}
	var enc bytes.Buffer
	out := dst
	if cfg.hasByteFaults() {
		out = &enc
	}

	meta := trace.Meta{Link: "tracegen", SnapLen: trace.DefaultSnapLen, Start: time.Unix(0, 0)}
	var w interface {
		Write(trace.Record) error
		Flush() error
	}
	if cfg.pcap {
		pw, err := trace.NewPcapWriter(out, meta)
		if err != nil {
			return err
		}
		w = pw
	} else {
		nw, err := trace.NewWriter(out, meta)
		if err != nil {
			return err
		}
		w = nw
	}

	var sink trace.Sink = w
	var faultSink *chaos.Sink
	if cfg.hasRecordFaults() {
		faultSink = chaos.NewSink(w, cfg.recordFaults)
		sink = faultSink
	}
	// The synthesizer cannot be stopped, so after a failed write the
	// rest of the trace is drawn and dropped.
	var n int
	var werr error
	traffic.SynthesizeStream(scfg, rng, func(r trace.Record) {
		if werr != nil {
			return
		}
		n++
		if werr = sink.Write(r); werr == nil && cfg.live() && n%cfg.liveEvery == 0 {
			// A live capture grows in flushed batches, so a concurrent
			// tailer sees it grow.
			if werr = w.Flush(); werr == nil {
				time.Sleep(cfg.liveDelay)
			}
		}
	})
	if werr != nil {
		return werr
	}
	if faultSink != nil {
		if err := faultSink.Flush(); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if cfg.live() {
		fmt.Printf("wrote %d records (%d scripted loops) live to %s\n", n, cfg.loops, path)
		return nil
	}

	var damaged []chaos.Range
	if cfg.hasByteFaults() {
		// Never damage the file-level header: salvage needs it, and a
		// broken header makes the whole file unreadable rather than
		// degraded.
		hdr := int64(18 + len(meta.Link)) // native: magic+header+link name
		if cfg.pcap {
			hdr = 24
		}
		bf := cfg.byteFaults
		bf.Protect = append(bf.Protect, chaos.Range{Off: 0, Len: hdr})
		var image []byte
		image, damaged = chaos.CorruptBytes(enc.Bytes(), bf)
		if _, err := dst.Write(image); err != nil {
			return err
		}
	}
	if gzw != nil {
		if err := gzw.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("wrote %d records (%d scripted loops) to %s\n", n, cfg.loops, path)
	if faultSink != nil {
		st := faultSink.Stats()
		fmt.Printf("chaos: dropped %d, duplicated %d, truncated %d, reordered %d records\n",
			st.Dropped, st.Duplicated, st.Truncated, st.Reordered)
	}
	if cfg.hasByteFaults() {
		var bytesHit int64
		for _, d := range damaged {
			bytesHit += d.Len
		}
		fmt.Printf("chaos: %d byte-level faults damaging %d bytes of the encoded file\n",
			len(damaged), bytesHit)
	}
	return nil
}
