// Package stats provides the small statistical toolkit used across
// loopscope: a deterministic random number generator, empirical CDFs,
// histograms, and heavy-tailed samplers.
//
// Everything here is deliberately self-contained (stdlib only) and
// deterministic: the same seed always yields the same trace, which is
// what makes the paper-reproduction benchmarks repeatable.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is not cryptographically secure; it exists to make
// synthetic workloads reproducible across runs and platforms.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// float returns a uniform float64 in [0, 1).
func (r *RNG) float() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// It is used for Poisson packet inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	u := r.float()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Pareto returns a bounded Pareto sample with shape alpha on
// [min, max]. It is used for heavy-tailed flow sizes.
func (r *RNG) Pareto(alpha, min, max float64) float64 {
	if min <= 0 || max <= min {
		panic("stats: Pareto requires 0 < min < max")
	}
	u := r.float()
	ha := math.Pow(max, -alpha)
	la := math.Pow(min, -alpha)
	return math.Pow(ha+u*(la-ha), -1/alpha)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.float() < p
}

// Fork derives an independent generator from the current stream. It
// lets subsystems (traffic per link, failure schedule, ...) consume
// randomness without perturbing each other.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero-total weights panic.
func (r *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("stats: WeightedChoice with non-positive total weight")
	}
	x := r.float() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
