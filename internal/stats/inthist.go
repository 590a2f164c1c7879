package stats

import (
	"errors"
	"sort"
)

// intHistMaxKey clamps IntHist keys: the discrete distributions it
// backs (TTL delta, streams per loop, ICMP type, cross-link offset)
// live well below it, and the clamp keeps a hostile snapshot or a
// pathological loop from growing the key space without bound.
const intHistMaxKey = 4096

// IntHist is an exact integer-keyed histogram for small discrete
// distributions. Unlike a quantile sketch it has no error bound at
// all: merging is key-wise addition, quantiles are exact. The zero
// value is ready for Add.
type IntHist struct {
	Counts map[int]uint64 `json:"counts,omitempty"`
	N      uint64         `json:"n"`
}

// Add records one observation; keys clamp into [0, intHistMaxKey].
func (h *IntHist) Add(k int) {
	if k < 0 {
		k = 0
	}
	if k > intHistMaxKey {
		k = intHistMaxKey
	}
	if h.Counts == nil {
		h.Counts = make(map[int]uint64)
	}
	h.Counts[k]++
	h.N++
}

// Merge folds other into h (associative and commutative).
func (h *IntHist) Merge(other *IntHist) {
	if other == nil || other.N == 0 {
		return
	}
	if h.Counts == nil {
		h.Counts = make(map[int]uint64, len(other.Counts))
	}
	for k, c := range other.Counts {
		h.Counts[k] += c
	}
	h.N += other.N
}

// Count returns the number of observations.
func (h *IntHist) Count() uint64 { return h.N }

// keys returns the populated keys in increasing order.
func (h *IntHist) keys() []int {
	out := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Fraction returns the fraction of observations at key k, or 0 when
// empty.
func (h *IntHist) Fraction(k int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[k]) / float64(h.N)
}

// Mode returns the key with the highest count, the smallest such key
// on a tie. It panics when empty.
func (h *IntHist) Mode() int {
	if h.N == 0 {
		panic("stats: Mode of empty histogram")
	}
	best := -1
	for _, k := range h.keys() {
		if best < 0 || h.Counts[k] > h.Counts[best] {
			best = k
		}
	}
	return best
}

// Quantile returns the exact q-quantile (smallest key k with
// P(X <= k) >= q), or 0 when empty.
func (h *IntHist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-12
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.N))
	if float64(rank) < q*float64(h.N) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	keys := h.keys()
	for _, k := range keys {
		cum += h.Counts[k]
		if cum >= rank {
			return int64(k)
		}
	}
	return int64(keys[len(keys)-1])
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *IntHist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	var sum float64
	for k, c := range h.Counts {
		sum += float64(k) * float64(c)
	}
	return sum / float64(h.N)
}

// MinMax returns the smallest and largest populated keys (0, 0 when
// empty).
func (h *IntHist) MinMax() (int64, int64) {
	keys := h.keys()
	if len(keys) == 0 {
		return 0, 0
	}
	return int64(keys[0]), int64(keys[len(keys)-1])
}

// Buckets returns one bucket per populated key, in key order.
func (h *IntHist) Buckets() []Bucket {
	var out []Bucket
	for _, k := range h.keys() {
		out = append(out, Bucket{Lo: int64(k), Hi: int64(k), Count: h.Counts[k]})
	}
	return out
}

// Validate rejects an image no sequence of Adds could have built: a
// key outside the clamp, or counts that disagree with N. Decoders of
// persisted histograms call it before trusting one.
func (h *IntHist) Validate() error {
	var sum uint64
	for k, c := range h.Counts {
		if k < 0 || k > intHistMaxKey {
			return errors.New("stats: int histogram key out of range")
		}
		sum += c
	}
	if sum != h.N {
		return errors.New("stats: int histogram counts disagree with N")
	}
	return nil
}

// Bucket is one histogram bucket of a quantile sketch or an integer
// histogram: observations v with Lo <= v <= Hi. It carries no JSON
// tags: the stats documents render it as pkg/loopscope's Bucket, which
// this package does not import, so fibscan never links the HTTP client.
type Bucket struct {
	Lo    int64
	Hi    int64
	Count uint64
}
