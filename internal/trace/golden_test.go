package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/internal/chaos"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

type salvageGolden struct {
	Format  string            `json:"format"`
	Seed    uint64            `json:"seed"`
	Records int               `json:"records"`
	SHA256  string            `json:"sha256"`
	Stats   trace.DecodeStats `json:"stats"`
}

// goldenTrace encodes n seeded records (caplens 20–40, occasional idle
// gaps, ERF loss counters) in the given format.
func goldenTrace(t *testing.T, format trace.Format, seed uint64, n int) []byte {
	t.Helper()
	rng := stats.NewRNG(seed)
	meta := trace.Meta{Link: "golden", SnapLen: 40, Start: time.Unix(1_005_202_800, 0)}
	var buf bytes.Buffer
	var w interface {
		Write(trace.Record) error
		Flush() error
	}
	var err error
	switch format {
	case trace.FormatNative:
		w, err = trace.NewWriter(&buf, meta)
	case trace.FormatPcap:
		w, err = trace.NewPcapWriter(&buf, meta)
	case trace.FormatERF:
		w, err = trace.NewERFWriter(&buf, meta)
	}
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(rng.Intn(200)) * time.Microsecond
		if rng.Intn(500) == 0 {
			at += time.Duration(rng.Intn(20)) * time.Minute
		}
		data := make([]byte, 20+rng.Intn(21))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		data[0] = 0x45
		rec := trace.Record{Time: at, WireLen: len(data) + rng.Intn(1460), Data: data}
		if format == trace.FormatERF && rng.Intn(100) == 0 {
			rec.Lost = 1 + rng.Intn(9)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSalvageGolden pins the salvage path to what the pre-codec
// reader delivered on chaos-damaged files: same records (count and
// SHA-256 over time, lengths, loss counter and bytes) and the same
// DecodeStats, for every format and five damage seeds.
// testdata/salvage_golden.json is a fixed input, written once by the
// reader at commit 94c02b3 (json.MarshalIndent of the cases below); a
// PR that changes salvage behaviour on purpose regenerates it by hand.
func TestSalvageGolden(t *testing.T) {
	path := filepath.Join("testdata", "salvage_golden.json")
	var got []salvageGolden
	for _, format := range []trace.Format{trace.FormatNative, trace.FormatPcap, trace.FormatERF} {
		for seed := uint64(1); seed <= 5; seed++ {
			// ~1 MiB per file; the last seed is ~2.6 MiB, past the 2 MiB
			// the old salvage reader buffered before it first saw EOF.
			size := 20000
			if seed == 5 {
				size = 50000
			}
			clean := goldenTrace(t, format, seed, size)
			damaged, _ := chaos.CorruptBytes(clean, chaos.ByteFaults{
				Seed:          seed,
				BitFlips:      40,
				GarbageBursts: 12,
				BurstLen:      400,
				TruncateTail:  int(7 + seed),
				Protect:       []chaos.Range{{Off: 0, Len: 64}},
			})
			s, stats, err := trace.OpenStream(bytes.NewReader(damaged), trace.OpenOptions{Format: format, Salvage: true})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			n := 0
			for {
				rec, err := s.Borrow()
				if err != nil {
					break
				}
				var fixed [24]byte
				binary.BigEndian.PutUint64(fixed[0:], uint64(rec.Time))
				binary.BigEndian.PutUint64(fixed[8:], uint64(rec.WireLen))
				binary.BigEndian.PutUint32(fixed[16:], uint32(rec.Lost))
				binary.BigEndian.PutUint32(fixed[20:], uint32(len(rec.Data)))
				h.Write(fixed[:])
				h.Write(rec.Data)
				n++
			}
			got = append(got, salvageGolden{
				Format: format.String(), Seed: seed, Records: n,
				SHA256: hex.EncodeToString(h.Sum(nil)), Stats: *stats,
			})
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []salvageGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s seed %d:\n got  %+v\n want %+v", want[i].Format, want[i].Seed, got[i], want[i])
		}
		if want[i].Stats.Errors == 0 || want[i].Stats.Salvaged == 0 {
			t.Errorf("%s seed %d: golden case exercises no resync: %+v", want[i].Format, want[i].Seed, want[i].Stats)
		}
	}
}
