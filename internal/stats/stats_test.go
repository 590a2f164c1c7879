package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(77), NewRNG(77)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(78)
	same := 0
	a2 := NewRNG(77)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.float()
		if v < 0 || v >= 1 {
			t.Fatalf("float out of [0,1): %v", v)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(2)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.8 || mean > 10.2 {
		t.Errorf("Exp(10) sample mean = %v", mean)
	}
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.2, 2, 100)
		if v < 2 || v > 100 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestRNGWeightedChoice(t *testing.T) {
	r := NewRNG(5)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice([]float64{1, 2, 7})]++
	}
	if f := float64(counts[2]) / n; f < 0.65 || f > 0.75 {
		t.Errorf("heavy bucket fraction = %v, want ~0.7", f)
	}
	if f := float64(counts[0]) / n; f < 0.07 || f > 0.13 {
		t.Errorf("light bucket fraction = %v, want ~0.1", f)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(6)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forked streams start identically")
	}
}

// cdfOf returns a CDF of vs.
func cdfOf(vs ...float64) *CDF {
	c := &CDF{}
	for _, v := range vs {
		c.Add(v)
	}
	return c
}

func TestCDFBasics(t *testing.T) {
	c := cdfOf(3, 1, 2, 2, 5)
	if c.N() != 5 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := c.At(2); got != 0.6 {
		t.Errorf("At(2) = %v, want 0.6", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %v, want 5", got)
	}
	// The least q Quantile takes selects the smallest observation.
	if least := c.Quantile(math.SmallestNonzeroFloat64); least != 1 || c.Max() != 5 {
		t.Errorf("min/Max = %v/%v", least, c.Max())
	}
	if got := c.Mean(); math.Abs(got-2.6) > 1e-12 {
		t.Errorf("Mean = %v, want 2.6", got)
	}
}

func TestCDFEmptyAndPanics(t *testing.T) {
	var c CDF
	if c.At(1) != 0 {
		t.Error("empty CDF At != 0")
	}
	if c.Mean() != 0 {
		t.Error("empty CDF Mean != 0")
	}
	for _, fn := range []func(){
		func() { c.Quantile(0.5) },
		func() { c.Max() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty-CDF accessor did not panic")
				}
			}()
			fn()
		}()
	}
	full := cdfOf(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile(0) did not panic")
			}
		}()
		full.Quantile(0)
	}()
}

// TestCDFMonotoneQuick: At is non-decreasing in x and bounded in
// [0, 1]; Quantile inverts At.
func TestCDFMonotoneQuick(t *testing.T) {
	f := func(raw []float64, x1, x2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		c := cdfOf(raw...)
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		y1, y2 := c.At(x1), c.At(x2)
		if y1 < 0 || y2 > 1 || y1 > y2 {
			return false
		}
		// Galois connection: At(Quantile(q)) >= q for any q in (0,1].
		for _, q := range []float64{0.001, 0.25, 0.5, 0.75, 0.999, 1} {
			if c.At(c.Quantile(q)) < q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	var h IntHist
	for _, k := range []int{8, 2, 2, 3, 8} {
		h.Add(k)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Counts[2] != 2 || h.Counts[99] != 0 {
		t.Errorf("counts wrong")
	}
	if got := h.Fraction(8); got != 0.4 {
		t.Errorf("Fraction(8) = %v", got)
	}
	if b := h.Buckets(); len(b) != 3 || b[0].Lo != 2 || b[2].Lo != 8 {
		t.Errorf("Buckets = %v", b)
	}
	// 2 and 8 tie; the smaller key wins.
	if h.Mode() != 2 {
		t.Errorf("Mode = %d", h.Mode())
	}
	var empty IntHist
	if empty.Fraction(1) != 0 {
		t.Error("empty histogram fraction != 0")
	}
}

func TestIntHistExact(t *testing.T) {
	var h IntHist
	var cdf CDF
	rng := NewRNG(3)
	for i := 0; i < 5000; i++ {
		k := rng.Intn(40)
		h.Add(k)
		cdf.Add(float64(k))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if got, want := h.Quantile(q), int64(cdf.Quantile(q)); got != want {
			t.Errorf("q=%v: %d, want exact %d", q, got, want)
		}
	}
	min, max := h.MinMax()
	if least := cdf.Quantile(math.SmallestNonzeroFloat64); min != int64(least) || max != int64(cdf.Max()) {
		t.Errorf("minmax (%d,%d) vs (%v,%v)", min, max, least, cdf.Max())
	}
	if math.Abs(h.Mean()-cdf.Mean()) > 1e-9 {
		t.Errorf("mean %v vs %v", h.Mean(), cdf.Mean())
	}

	// Merge in halves equals direct build.
	var a, b, m IntHist
	for i := 0; i < 1000; i++ {
		k := rng.Intn(20)
		if i%2 == 0 {
			a.Add(k)
		} else {
			b.Add(k)
		}
		m.Add(k)
	}
	a.Merge(&b)
	if a.N != m.N || len(a.Counts) != len(m.Counts) {
		t.Fatal("merged halves diverge from direct build")
	}
	for k, c := range m.Counts {
		if a.Counts[k] != c {
			t.Fatalf("key %d: %d vs %d", k, a.Counts[k], c)
		}
	}

	// Clamping.
	var c IntHist
	c.Add(-5)
	c.Add(999999)
	if c.Counts[0] != 1 || c.Counts[intHistMaxKey] != 1 {
		t.Fatalf("clamp failed: %+v", c.Counts)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.N++
	if c.Validate() == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(11)
	z := NewZipf(rng, 1.1, 100)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 must dominate and the distribution must be (roughly)
	// monotone decreasing over decile sums.
	if counts[0] < counts[10] {
		t.Errorf("rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
	firstDecile, lastDecile := 0, 0
	for i := 0; i < 10; i++ {
		firstDecile += counts[i]
		lastDecile += counts[90+i]
	}
	if firstDecile < 5*lastDecile {
		t.Errorf("first decile %d not >> last decile %d", firstDecile, lastDecile)
	}
	// All ranks reachable with a big sample? Not guaranteed, but the
	// CDF must be normalized: a sample is always in range.
	for i := 0; i < 1000; i++ {
		if s := z.Sample(); s < 0 || s >= 100 {
			t.Fatalf("sample out of range: %d", s)
		}
	}
}

func TestZipfDeterministicCum(t *testing.T) {
	// The cumulative mass must be sorted and end at exactly 1.
	z := NewZipf(NewRNG(1), 0.9, 37)
	if !sort.Float64sAreSorted(z.cum) {
		t.Error("cumulative mass not sorted")
	}
	if z.cum[len(z.cum)-1] != 1 {
		t.Errorf("last cum = %v, want 1", z.cum[len(z.cum)-1])
	}
	if len(z.cum) != 37 {
		t.Errorf("%d ranks", len(z.cum))
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(NewRNG(1), 1, 0) },
		func() { NewZipf(NewRNG(1), 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Zipf accepted")
				}
			}()
			fn()
		}()
	}
}

func TestParetoPanics(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Error("Pareto with min >= max accepted")
		}
	}()
	r.Pareto(1.1, 10, 5)
}

func TestHistogramModePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mode of empty histogram accepted")
		}
	}()
	new(IntHist).Mode()
}

func TestRNGInt63n(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) accepted")
		}
	}()
	r.Int63n(0)
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(4)
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Errorf("Bool(0.25) hit %d of 10000", n)
	}
}
