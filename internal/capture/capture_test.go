package capture

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

func buildLink(t *testing.T) (*netsim.Network, *netsim.Router, *netsim.Link) {
	t.Helper()
	n := netsim.NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	l := n.Connect(a, b, netsim.DefaultLinkParams())
	dst := routing.MustParsePrefix("203.0.113.0/24")
	b.AttachPrefix(dst)
	a.SetRoute(dst, b.ID)
	return n, a, l
}

func pkt(id uint16, payload int) packet.Packet {
	return packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: 60, Protocol: packet.ProtoTCP,
			Src: packet.AddrFrom(192, 0, 2, 1), Dst: packet.AddrFrom(203, 0, 113, 9), ID: id,
		},
		Kind:         packet.KindTCP,
		TCP:          packet.TCPHeader{SrcPort: 1, DstPort: 2, DataOffset: 5, Flags: packet.TCPAck},
		HasTransport: true,
		PayloadLen:   payload,
		PayloadSeed:  uint64(id),
	}
}

func TestTapSnapshotsAndCounts(t *testing.T) {
	n, a, l := buildLink(t)
	tap := NewLinkTap(l, 40, nil, true)

	n.Inject(a, pkt(1, 1000))
	n.Inject(a, pkt(2, 0)) // 40-byte packet: snapshot == whole packet
	n.Sim.Run(time.Second)

	recs := tap.Records()
	if len(recs) != 2 || len(tap.recs) != 2 {
		t.Fatalf("captured %d records", len(recs))
	}
	if len(recs[0].Data) != 40 || recs[0].WireLen != 1040 {
		t.Errorf("record 0: caplen=%d wirelen=%d", len(recs[0].Data), recs[0].WireLen)
	}
	if len(recs[1].Data) != 40 || recs[1].WireLen != 40 {
		t.Errorf("record 1: caplen=%d wirelen=%d", len(recs[1].Data), recs[1].WireLen)
	}
	if tap.wireBytes != 1080 {
		t.Errorf("wire bytes = %d", tap.wireBytes)
	}
	if err := trace.Validate(recs); err != nil {
		t.Errorf("captured trace invalid: %v", err)
	}
	// Decoded snapshot must match the injected header.
	p, err := packet.Decode(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if p.IP.ID != 1 || p.TCP.DstPort != 2 {
		t.Errorf("decoded snapshot mismatch: %+v", p)
	}
	// TTL on the wire is one less than injected (the ingress router
	// forwarded the packet once).
	if p.IP.TTL != 59 {
		t.Errorf("captured TTL = %d, want 59", p.IP.TTL)
	}
}

func TestTapStreamsToSink(t *testing.T) {
	n, a, l := buildLink(t)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Meta{Link: "test", SnapLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	tap := NewLinkTap(l, 40, w, false)

	for i := 0; i < 100; i++ {
		n.Inject(a, pkt(uint16(i+1), 200))
	}
	n.Sim.Run(time.Second)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tap.recs) != 0 {
		t.Errorf("retain=false kept %d records", len(tap.recs))
	}
	if tap.errs != 0 {
		t.Errorf("tap errors = %d", tap.errs)
	}

	r, _, err := trace.OpenStream(&buf, trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Errorf("sink received %d records", len(recs))
	}
}

// failAfterSink accepts n writes and then fails every one.
type failAfterSink struct {
	n      int
	wrote  int
	failed int
}

func (s *failAfterSink) Write(trace.Record) error {
	if s.wrote >= s.n {
		s.failed++
		return errSinkFull
	}
	s.wrote++
	return nil
}

var errSinkFull = errors.New("sink full")

func TestTapSurfacesSinkError(t *testing.T) {
	n, a, l := buildLink(t)
	sink := &failAfterSink{n: 3}
	tap := NewLinkTap(l, 40, sink, true)

	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Millisecond
		id := uint16(i + 1)
		n.Sim.At(at, func() { n.Inject(a, pkt(id, 100)) })
	}
	n.Sim.Run(time.Second)

	if err := tap.sinkErr; !errors.Is(err, errSinkFull) {
		t.Fatalf("tap.sinkErr = %v, want errSinkFull", err)
	}
	if tap.errs == 0 {
		t.Error("sink failure not counted")
	}
	// After the first failure the sink must not be written again...
	if sink.failed != 1 {
		t.Errorf("sink saw %d failed writes, want exactly 1", sink.failed)
	}
	// ...but in-memory capture continues.
	if len(tap.recs) != 10 {
		t.Errorf("retained %d records, want 10", len(tap.recs))
	}
}

func TestTapDefaultSnapLen(t *testing.T) {
	_, _, l := buildLink(t)
	tap := NewLinkTap(l, 0, nil, true)
	if tap.Meta().SnapLen != trace.DefaultSnapLen {
		t.Errorf("snaplen = %d", tap.Meta().SnapLen)
	}
	if tap.Meta().SnapLen != trace.DefaultSnapLen {
		t.Error("source meta mismatch")
	}
}

func TestTapDuplicateInjection(t *testing.T) {
	n, a, l := buildLink(t)
	tap := NewLinkTapOpts(l, Options{
		SnapLen: 40, Retain: true,
		DupRate: 1, DupTTLDrop: 2, DupDelay: 500 * time.Microsecond,
		RNG: stats.NewRNG(1),
	})
	n.Inject(a, pkt(1, 100))
	n.Sim.At(10*time.Millisecond, func() { n.Inject(a, pkt(2, 100)) })
	// A trailing packet flushes pending duplicates into the record
	// stream.
	n.Sim.At(20*time.Millisecond, func() { n.Inject(a, pkt(3, 100)) })
	n.Sim.Run(time.Second)

	recs := tap.Records()
	if tap.dups != 3 {
		t.Errorf("duplicates = %d, want 3", tap.dups)
	}
	// At least the first two duplicates must have been flushed.
	if len(recs) < 4 {
		t.Fatalf("records = %d", len(recs))
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatalf("duplicated trace invalid: %v", err)
	}
	// Record 1 is the duplicate of record 0: same bytes except TTL
	// (lower by 2) and IP checksum, and its checksum must verify.
	p0, err := packet.Decode(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := packet.Decode(recs[1].Data)
	if err != nil {
		t.Fatal(err)
	}
	if p0.IP.ID != p1.IP.ID || int(p0.IP.TTL)-int(p1.IP.TTL) != 2 {
		t.Errorf("duplicate TTL relation wrong: %d -> %d", p0.IP.TTL, p1.IP.TTL)
	}
	if packet.Checksum(recs[1].Data[:int(p1.IP.IHL)*4], 0) != 0 {
		t.Error("duplicate IP checksum does not verify")
	}
	if p0.TCP.Checksum != p1.TCP.Checksum {
		t.Error("duplicate transport checksum differs")
	}
	// The detector must classify original+duplicate as a discarded
	// pair, not a loop.
	res := core.DetectRecords(recs, core.DefaultConfig())
	if len(res.Streams) != 0 {
		t.Errorf("duplicates detected as %d loop streams", len(res.Streams))
	}
	if res.PairsDiscarded == 0 {
		t.Error("no pairs discarded")
	}
}
