package stats

import "math"

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Destination-address popularity on backbone links is
// strongly skewed; a Zipf law is the standard synthetic stand-in.
//
// The implementation precomputes the cumulative mass so each Sample is
// a binary search — O(log n) — which keeps trace generation fast even
// for hundreds of thousands of prefixes.
type Zipf struct {
	cum []float64
	rng *RNG
}

// NewZipf returns a sampler over n ranks with exponent s (> 0),
// drawing randomness from rng. It panics if n <= 0 or s <= 0.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with n <= 0")
	}
	if s <= 0 {
		panic("stats: NewZipf with s <= 0")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	// Normalise so the last entry is exactly 1.
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1
	return &Zipf{cum: cum, rng: rng}
}

// Sample returns a rank in [0, n), n the rank count it was made with.
func (z *Zipf) Sample() int {
	u := z.rng.float()
	// Binary search for the first cum[i] >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
