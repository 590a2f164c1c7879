// Package analytics is loopscope's streaming analytics subsystem: the
// paper's loop-level distributions computed incrementally, in bounded
// memory, while the daemon serves days of traffic — loop duration
// (Figure 9), the TTL delta (Figure 2, counted per loop rather than per
// stream), streams and replicas per loop, the escape delay of §VI, and
// the top looping prefixes (Figure 7's destination concentration).
//
// Everything here is mergeable and serializable by construction:
//
//   - Sketch: a fixed-bucket log-scale quantile sketch (DDSketch
//     family) with a guaranteed relative error bound. Merging is
//     element-wise bucket addition, so it is exactly associative and
//     commutative — merge order and window tiling can never change a
//     quantile answer, which is what lets per-window segments roll up
//     into hours and days, and per-daemon sketches roll up into a
//     fleet view, without drift.
//   - stats.IntHist: the exact integer-keyed histogram, for the small
//     discrete distributions (TTL delta, streams per loop).
//   - topK: a space-saving heavy-hitter counter for per-prefix loop
//     counts, mergeable with a documented error bound.
//
// The Collector stacks these into time-partitioned window tiers and is
// the one code path both the daemon's publish pipeline and offline
// `loopdetect -json` feed, so online and offline answers agree within
// the sketch bounds.
//
// Beyond the standard library it imports internal/stats (IntHist,
// Bucket), internal/core (ObsFromLoop reduces a core.Loop),
// internal/durable (the snapshot file) and internal/obs/provenance (the
// latency document's segment order) — none of the daemon or aggregator
// packages that feed it.
package analytics

import (
	"errors"
	"fmt"
	"math"

	"loopscope/internal/stats"
)

// sketchAlpha is the Sketch's guaranteed relative error bound: any
// quantile estimate q̂ satisfies |q̂ - q| <= sketchAlpha * q for the
// true quantile value q within the representable range. It is a
// compile-time constant so every sketch in the system (and therefore
// every merge) uses identical bucket boundaries.
const sketchAlpha = 0.01

// sketchGammaLn is ln((1+α)/(1-α)), the log-scale bucket width.
var sketchGammaLn = math.Log((1 + sketchAlpha) / (1 - sketchAlpha))

// sketchMaxIndex bounds the bucket index range: values above
// gamma^sketchMaxIndex (≈ 4.9e18, comfortably past int64 nanosecond
// spans) clamp into the last bucket. With α = 1% that is ~2150
// possible buckets; storage is sparse (a contiguous slice spanning
// only the observed index range), so an idle window segment costs a
// few words, not the full range.
var sketchMaxIndex = sketchIndex(math.MaxInt64)

// sketchIndex maps a positive value to its log-scale bucket index:
// the smallest i with gamma^i >= v.
func sketchIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(float64(v)) / sketchGammaLn))
}

// sketchValue returns the representative value for bucket index i: the
// γ-midpoint 2·γ^i/(γ+1), whose relative distance to any value in the
// bucket is at most α.
func sketchValue(i int) int64 {
	gamma := math.Exp(sketchGammaLn)
	v := 2 * math.Exp(float64(i)*sketchGammaLn) / (gamma + 1)
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	if v < 1 {
		return 1
	}
	return int64(math.Round(v))
}

// sketch is a mergeable quantile sketch over non-negative int64
// observations (durations in nanoseconds, counts): a log-scale
// histogram with fixed global bucket boundaries and a guaranteed
// relative error of sketchAlpha on every quantile. The zero value is
// an empty sketch ready for Add.
//
// Buckets are stored sparsely: bins[j] counts observations in global
// bucket index off+j. Zero and negative observations (a zero-duration
// loop cannot happen, but the type should not lie) are counted in
// Zeros and sort before every positive bucket.
type sketch struct {
	Off   int      `json:"off,omitempty"`
	Bins  []uint64 `json:"bins,omitempty"`
	Zeros uint64   `json:"zeros,omitempty"`
	N     uint64   `json:"n"`
	// Sum is kept as float64: int64 would overflow summing ~10^6
	// nanosecond-scale observations; the mean does not need exactness.
	Sum float64 `json:"sum"`
	Min int64   `json:"min"`
	Max int64   `json:"max"`
}

// add records one observation.
func (s *sketch) add(v int64) {
	if s.N == 0 || v < s.Min {
		s.Min = v
	}
	if s.N == 0 || v > s.Max {
		s.Max = v
	}
	s.N++
	s.Sum += float64(v)
	if v <= 0 {
		s.Zeros++
		return
	}
	i := sketchIndex(v)
	if i > sketchMaxIndex {
		i = sketchMaxIndex
	}
	s.grow(i)
	s.Bins[i-s.Off]++
}

// grow extends the sparse bucket window to include global index i.
func (s *sketch) grow(i int) {
	if len(s.Bins) == 0 {
		s.Off = i
		s.Bins = []uint64{0}
		return
	}
	if i < s.Off {
		pad := make([]uint64, s.Off-i, s.Off-i+len(s.Bins))
		s.Bins = append(pad, s.Bins...)
		s.Off = i
		return
	}
	for i >= s.Off+len(s.Bins) {
		s.Bins = append(s.Bins, 0)
	}
}

// merge folds other into s. Merging is element-wise addition over
// identical global buckets, so it is associative and commutative:
// any merge tree over the same observations yields the same sketch.
func (s *sketch) merge(other *sketch) {
	if other == nil || other.N == 0 {
		return
	}
	if s.N == 0 {
		s.Min, s.Max = other.Min, other.Max
	} else {
		if other.Min < s.Min {
			s.Min = other.Min
		}
		if other.Max > s.Max {
			s.Max = other.Max
		}
	}
	s.N += other.N
	s.Sum += other.Sum
	s.Zeros += other.Zeros
	if len(other.Bins) > 0 {
		s.grow(other.Off)
		s.grow(other.Off + len(other.Bins) - 1)
		for j, c := range other.Bins {
			s.Bins[other.Off+j-s.Off] += c
		}
	}
}

// Count returns the number of observations.
func (s *sketch) Count() uint64 { return s.N }

// MinMax returns the exact smallest and largest observations (0, 0
// when empty).
func (s *sketch) MinMax() (int64, int64) {
	if s.N == 0 {
		return 0, 0
	}
	return s.Min, s.Max
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *sketch) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Quantile returns an estimate of the q-quantile (q in (0, 1]) with
// relative error at most sketchAlpha. It returns 0 on an empty sketch
// (analytics endpoints prefer a zero row over a panic).
func (s *sketch) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.Zeros {
		return 0
	}
	cum := s.Zeros
	for j, c := range s.Bins {
		cum += c
		if cum >= rank {
			v := sketchValue(s.Off + j)
			// The exact extremes are tracked; never estimate outside them.
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Buckets returns the non-empty log-scale buckets in increasing value
// order, the zero bucket first when populated.
func (s *sketch) Buckets() []stats.Bucket {
	var out []stats.Bucket
	if s.Zeros > 0 {
		out = append(out, stats.Bucket{Lo: 0, Hi: 0, Count: s.Zeros})
	}
	gamma := math.Exp(sketchGammaLn)
	for j, c := range s.Bins {
		if c == 0 {
			continue
		}
		i := s.Off + j
		hi := math.Exp(float64(i) * sketchGammaLn)
		lo := hi / gamma
		out = append(out, stats.Bucket{Lo: int64(lo) + 1, Hi: int64(hi), Count: c})
	}
	return out
}

// validate rejects structurally impossible sketch images (negative
// offsets past the index range, count mismatches) so a corrupt
// snapshot cannot smuggle in quantile answers that crash later.
func (s *sketch) validate() error {
	if s.Off < 0 || s.Off > sketchMaxIndex {
		return fmt.Errorf("analytics: sketch offset %d out of range", s.Off)
	}
	if s.Off+len(s.Bins) > sketchMaxIndex+1 {
		return fmt.Errorf("analytics: sketch spans %d buckets past the index range", s.Off+len(s.Bins))
	}
	var binned uint64
	for _, c := range s.Bins {
		binned += c
	}
	if binned+s.Zeros != s.N {
		return errors.New("analytics: sketch bucket counts disagree with N")
	}
	if s.N > 0 && s.Min > s.Max {
		return errors.New("analytics: sketch min exceeds max")
	}
	return nil
}
