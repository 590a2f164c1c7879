package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function built from a
// sample of float64 observations. The zero value is an empty CDF ready
// for Add.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add records one observation.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// N returns the number of observations.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X <= x), the fraction of observations not exceeding x.
// An empty CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	// First index with samples[i] > x.
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > x })
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the smallest observation v such that At(v) >= q,
// for q in (0, 1]. Quantile(0.5) is the median. It panics on an empty
// CDF or q outside (0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) outside (0,1]", q))
	}
	c.sort()
	i := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if i < 0 {
		i = 0
	}
	return c.samples[i]
}

// Max returns the largest observation. It panics on an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		panic("stats: Max of empty CDF")
	}
	c.sort()
	return c.samples[len(c.samples)-1]
}

// Mean returns the arithmetic mean, or 0 for an empty CDF.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}
