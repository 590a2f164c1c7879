package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"os/exec"
	"time"

	"loopscope/internal/fibscan"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// traceSpec parameterises one generated capture. Every workload's
// trace is a pure function of (traceSpec, seed).
type traceSpec struct {
	// Kind names the regime: "sparse" or "loopstorm".
	Kind string
	// Prefixes is the number of destination /24s, Zipf-ranked.
	Prefixes int
	// Background is the number of never-looping packets drawn.
	Background int
	// Loops is the number of scripted loops.
	Loops int
	// PerLoop is the expected number of original packets each loop
	// captures. Twenty makes a starved loop (none arriving early
	// enough to run out of TTL inside the loop) a < 1e-6 event, which
	// is what lets the scripted LoopSpecs serve as exact ground truth.
	PerLoop float64
	// Deltas and RevMinUs/RevMaxUs shape the loops.
	Deltas             []int
	RevMinUs, RevMaxUs int
	// Reuse lets several loops share a prefix, in disjoint slots
	// separated by Gap (which must exceed the detector's merge window).
	Reuse bool
	Gap   time.Duration
}

// traceDuration is the trace-clock length of every generated capture:
// thirty times the detector's 2 s replica-gap horizon, so expiry runs
// at steady state for nearly the whole file.
const traceDuration = 60 * time.Second

// quietTail is the loop-free end of every capture. The streaming
// detector commits a loop only once the trace clock has passed its end
// by the merge window and the replica gap; with the storm's 2 s window
// every loop is final before the file ends, so a daemon that exits on
// idle journals no truncated events.
const quietTail = 6 * time.Second

const zipfS = 1.05

// scaled returns the spec shrunk for -scale runs.
func (s traceSpec) scaled(scale float64) traceSpec {
	s.Background = max(2000, int(float64(s.Background)*scale))
	s.Loops = max(2, int(math.Round(float64(s.Loops)*scale)))
	return s
}

// input describes one generated file; it goes into the result document
// so two runs can be shown to have measured the same bytes. Records is
// the unit throughput is counted in: packet records of a capture, FIB
// routes (local deliveries included) of a snapshot timeline.
type input struct {
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
	Records int    `json:"records"`
	SHA256  string `json:"sha256"`
}

// traceInput is a generated capture plus its ground truth.
type traceInput struct {
	input
	Loops         []traffic.LoopSpec
	LoopedRecords int
	MergeWindow   time.Duration
}

func prefixAt(i int) routing.Prefix {
	return routing.NewPrefix(packet.AddrFromUint32(0xC0000000|uint32(i)<<8), 24)
}

// scriptLoops places spec.Loops loops on prefixes chosen so that each
// loop is expected to capture spec.PerLoop packets: a loop on the
// rank-r prefix lasts PerLoop / (p(r) × background rate). Ranks too
// popular (the loop would be shorter than a replica stream's lifetime)
// or too rare (longer than a quarter of the trace) are not used.
func scriptLoops(spec traceSpec, rng *stats.RNG) ([]traffic.LoopSpec, error) {
	var norm float64
	for k := 1; k <= spec.Prefixes; k++ {
		norm += 1 / math.Pow(float64(k), zipfS)
	}
	rate := float64(spec.Background) / traceDuration.Seconds()
	// A stream dies of TTL exhaustion after at most 248/delta
	// revolutions; loops are at least five such lifetimes long, so four
	// fifths of the captured packets end before the loop does and are
	// not cut short into the single-replica leftovers that invalidate
	// concurrent streams (step 2).
	minDelta := spec.Deltas[0]
	for _, d := range spec.Deltas {
		minDelta = min(minDelta, d)
	}
	minDur := 5 * time.Duration(248/minDelta) * time.Duration(spec.RevMaxUs) * time.Microsecond
	usable := traceDuration - quietTail
	maxDur := usable / 4

	type slot struct {
		rank  int
		start time.Duration
		dur   time.Duration
	}
	var slots []slot
	for r := 0; r < spec.Prefixes && len(slots) < spec.Loops; r++ {
		p := 1 / (math.Pow(float64(r+1), zipfS) * norm)
		dur := time.Duration(spec.PerLoop / (p * rate) * float64(time.Second))
		if dur < minDur {
			continue
		}
		if dur > maxDur {
			break
		}
		n := 1
		if spec.Reuse {
			n = int(usable / (dur + spec.Gap))
		}
		// Spread the prefix's loops over the usable trace with a seeded
		// offset inside each slot's slack.
		pitch := usable / time.Duration(n)
		for i := 0; i < n; i++ {
			slack := pitch - dur - spec.Gap
			off := time.Duration(0)
			if slack > 0 {
				off = time.Duration(rng.Int63n(int64(slack)))
			}
			slots = append(slots, slot{rank: r, start: time.Duration(i)*pitch + off, dur: dur})
		}
	}
	if len(slots) < spec.Loops {
		return nil, fmt.Errorf("gen: only %d of %d loops fit the %s trace", len(slots), spec.Loops, spec.Kind)
	}
	loops := make([]traffic.LoopSpec, 0, spec.Loops)
	for _, s := range slots[:spec.Loops] {
		rev := spec.RevMinUs + rng.Intn(spec.RevMaxUs-spec.RevMinUs+1)
		loops = append(loops, traffic.LoopSpec{
			Prefix:     prefixAt(s.rank),
			Start:      s.start,
			Duration:   s.dur,
			TTLDelta:   spec.Deltas[rng.Intn(len(spec.Deltas))],
			Revolution: time.Duration(rev) * time.Microsecond,
		})
	}
	return loops, nil
}

// hashingFile is a buffered file writer that hashes what it writes.
type hashingFile struct {
	f *os.File
	h hash.Hash
	w *bufio.Writer
}

func createHashed(path string) (*hashingFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	return &hashingFile{f: f, h: h, w: bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)}, nil
}

func (hf *hashingFile) Write(p []byte) (int, error) { return hf.w.Write(p) }

// finish flushes, closes and describes the file.
func (hf *hashingFile) finish(records int) (input, error) {
	if err := hf.w.Flush(); err != nil {
		hf.f.Close()
		return input{}, err
	}
	st, err := hf.f.Stat()
	if err != nil {
		hf.f.Close()
		return input{}, err
	}
	if err := hf.f.Close(); err != nil {
		return input{}, err
	}
	return input{Path: hf.f.Name(), Bytes: st.Size(), Records: records,
		SHA256: hex.EncodeToString(hf.h.Sum(nil))}, nil
}

// genTrace synthesizes the capture for spec and seed into path.
func genTrace(spec traceSpec, seed uint64, path string) (*traceInput, error) {
	rng := stats.NewRNG(seed)
	loops, err := scriptLoops(spec, rng)
	if err != nil {
		return nil, err
	}
	dests := make([]routing.Prefix, spec.Prefixes)
	for i := range dests {
		dests[i] = prefixAt(i)
	}
	out, err := createHashed(path)
	if err != nil {
		return nil, err
	}
	meta := trace.Meta{Link: "bench-" + spec.Kind, SnapLen: trace.DefaultSnapLen, Start: time.Unix(0, 0)}
	w, err := trace.NewWriter(out, meta)
	if err != nil {
		out.f.Close()
		return nil, err
	}
	windows := make(map[routing.Prefix][]traffic.LoopSpec)
	for _, l := range loops {
		windows[l.Prefix] = append(windows[l.Prefix], l)
	}
	looped := 0
	var werr error
	traffic.SynthesizeStream(traffic.SynthConfig{
		Link:             meta.Link,
		Duration:         traceDuration,
		PacketsPerSecond: float64(spec.Background) / traceDuration.Seconds(),
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		ZipfS:            zipfS,
		HopsMin:          3,
		HopsMax:          10,
		Loops:            loops,
	}, rng, func(r trace.Record) {
		if werr != nil {
			return
		}
		// A record is looped iff it was drawn inside a scripted window:
		// its first replica is, and replicas never outlive the window.
		dst := packet.AddrFrom(r.Data[16], r.Data[17], r.Data[18], r.Data[19])
		for _, l := range windows[routing.PrefixOf(dst, 24)] {
			if r.Time >= l.Start && r.Time < l.Start+l.Duration {
				looped++
				break
			}
		}
		werr = w.Write(r)
	})
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		out.f.Close()
		return nil, werr
	}
	in, err := out.finish(w.Count())
	if err != nil {
		return nil, err
	}
	return &traceInput{input: in, Loops: loops, LoopedRecords: looped}, nil
}

// fibSpec parameterises the FIB snapshot timeline.
type fibSpec struct {
	Routers, Prefixes int
	// Snapshots is the timeline length; every fourth one repeats its
	// predecessor unchanged (a heartbeat capture).
	Snapshots int
}

func (s fibSpec) scaled(scale float64) fibSpec {
	s.Routers = max(10, int(float64(s.Routers)*scale))
	s.Prefixes = max(100, int(float64(s.Prefixes)*scale))
	return s
}

// fibInput is a generated snapshot timeline plus its ground truth.
type fibInput struct {
	input
	Snapshots int
	// Looped lists, per snapshot, exactly the prefixes caught in a
	// forwarding cycle.
	Looped [][]routing.Prefix
	// Changed counts snapshots whose tables differ from their
	// predecessor's (the first snapshot included).
	Changed int
}

// genFIB writes a SnapshotFile of fibscan.Synthetic captures. The loop
// counts are drawn from those that keep every injected loop on the
// same pair of hubs (prefix index a multiple of the hub count), so a
// changed snapshot differs from its predecessor in two routers' tables
// only; a router's revision is bumped exactly when its table changed,
// which is the contract ScanTimeline's reuse relies on.
func genFIB(spec fibSpec, seed uint64, path string) (*fibInput, error) {
	rng := stats.NewRNG(seed ^ 0xf1b)
	hubs := max(2, spec.Routers/100)
	var counts []int
	for k := 1; k <= 64 && k <= spec.Prefixes; k++ {
		if spec.Prefixes%k == 0 && (spec.Prefixes/k)%hubs == 0 {
			counts = append(counts, k)
		}
	}
	if len(counts) < 2 {
		return nil, fmt.Errorf("gen: %d prefixes over %d hubs leave no loop counts to alternate", spec.Prefixes, hubs)
	}
	file := fibscan.SnapshotFile{Version: fibscan.FileVersion, Network: "bench-timeline"}
	fi := &fibInput{Snapshots: spec.Snapshots}
	routes := 0
	last := -1
	for i := 0; i < spec.Snapshots; i++ {
		k := last
		if i%4 != 3 || last < 0 {
			for k == last {
				k = counts[rng.Intn(len(counts))]
			}
		}
		snap, looped := fibscan.Synthetic(spec.Routers, spec.Prefixes, k)
		snap.TakenNs = int64(i) * int64(time.Second)
		if i > 0 {
			prev := &file.Snapshots[i-1]
			for r := range snap.Routers {
				snap.Routers[r].Revision = prev.Routers[r].Revision
				if k != last && !sameTable(&snap.Routers[r], &prev.Routers[r]) {
					snap.Routers[r].Revision++
				}
			}
		}
		if k != last {
			fi.Changed++
		}
		last = k
		for r := range snap.Routers {
			routes += len(snap.Routers[r].Routes) + len(snap.Routers[r].Locals)
		}
		file.Snapshots = append(file.Snapshots, snap)
		fi.Looped = append(fi.Looped, looped)
	}
	out, err := createHashed(path)
	if err != nil {
		return nil, err
	}
	if err := file.Encode(out); err != nil {
		out.f.Close()
		return nil, err
	}
	fi.input, err = out.finish(routes)
	return fi, err
}

func sameTable(a, b *fibscan.RouterFIB) bool {
	if len(a.Routes) != len(b.Routes) || len(a.Locals) != len(b.Locals) {
		return false
	}
	for i := range a.Routes {
		if a.Routes[i] != b.Routes[i] {
			return false
		}
	}
	for i := range a.Locals {
		if a.Locals[i] != b.Locals[i] {
			return false
		}
	}
	return true
}

// generateEnv, when set, turns the harness (or its test binary) into a
// generator: it holds a JSON genRequest, and the process writes the
// file and prints the genReply. Generation runs in a subprocess so that
// the harness itself stays small: a child's rusage peak RSS is never
// below the peak RSS of the process that spawned it (see runTimed).
const generateEnv = "LOOPSCOPE_BENCH_GENERATE"

// genRequest asks for one input; exactly one of Trace and FIB is set.
type genRequest struct {
	Trace *traceSpec
	FIB   *fibSpec
	Seed  uint64
	Path  string
}

// genReply carries the generated input's description and ground truth.
type genReply struct {
	Trace *traceInput
	FIB   *fibInput
}

// generateMain is the subprocess side of generate.
func generateMain(request string) int {
	var req genRequest
	var reply genReply
	err := json.Unmarshal([]byte(request), &req)
	switch {
	case err != nil:
	case req.Trace != nil:
		reply.Trace, err = genTrace(*req.Trace, req.Seed, req.Path)
	default:
		reply.FIB, err = genFIB(*req.FIB, req.Seed, req.Path)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(reply)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: generate:", err)
		return 1
	}
	return 0
}

// generate runs req in a subprocess of this same binary and reports how
// long that took. Whatever a previous generation left at the path is
// removed first, outside the timing: truncating a file whose pages are
// still in the page cache costs the next writer a variable amount.
func generate(req genRequest) (genReply, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return genReply{}, 0, err
	}
	data, err := json.Marshal(req)
	if err != nil {
		return genReply{}, 0, err
	}
	if err := os.Remove(req.Path); err != nil && !os.IsNotExist(err) {
		return genReply{}, 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), generateEnv+"="+string(data))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	out, err := cmd.Output()
	elapsed := time.Since(start)
	if err != nil {
		return genReply{}, 0, fmt.Errorf("generating %s: %v\n%s", req.Path, err, stderr.String())
	}
	var reply genReply
	err = json.Unmarshal(out, &reply)
	return reply, elapsed, err
}
