package analytics

import (
	"math"
	"math/rand"
	"testing"

	"loopscope/internal/stats"
)

// relErr returns |got-want| / want (want > 0).
func relErr(got, want int64) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestSketchQuantileErrorBound checks the headline guarantee against
// the exact CDF from internal/stats: every reported quantile is within
// sketchAlpha relative error of the true one, across several
// distribution shapes.
func TestSketchQuantileErrorBound(t *testing.T) {
	// Each shape draws from its own seeded stream so the sample sets
	// are deterministic regardless of subtest order.
	shapes := map[string]func(rng *rand.Rand) int64{
		"uniform":   func(rng *rand.Rand) int64 { return 1 + rng.Int63n(1_000_000) },
		"lognormal": func(rng *rand.Rand) int64 { return int64(math.Exp(rng.NormFloat64()*2+10)) + 1 },
		"heavytail": func(rng *rand.Rand) int64 { return int64(1 / (rng.Float64() + 1e-9)) },
		"constant":  func(rng *rand.Rand) int64 { return 42_000 },
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var s sketch
			cdf := &stats.CDF{}
			least := int64(math.MaxInt64)
			for i := 0; i < 20_000; i++ {
				v := gen(rng)
				s.add(v)
				cdf.Add(float64(v))
				least = min(least, v)
			}
			for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				got := s.Quantile(q)
				want := int64(cdf.Quantile(q))
				if want == 0 {
					continue
				}
				// The α guarantee is on real values; reporting integer
				// bucket representatives can add up to one unit of
				// rounding on top (visible only for tiny values, where
				// adjacent integers are >α apart).
				if re := relErr(got, want); re > sketchAlpha && absDiff(got, want) > 1 {
					t.Errorf("q=%v: sketch %d vs exact %d, rel err %.4f > %v", q, got, want, re, sketchAlpha)
				}
			}
			if s.Min != least || s.Max != int64(cdf.Max()) {
				t.Errorf("min/max: sketch (%d,%d) vs exact (%d,%v)", s.Min, s.Max, least, cdf.Max())
			}
			if re := math.Abs(s.Mean()-cdf.Mean()) / cdf.Mean(); re > 1e-9 {
				t.Errorf("mean drifted: %v vs %v", s.Mean(), cdf.Mean())
			}
		})
	}
}

// TestSketchMergeAssociativeCommutative is the property the whole
// window design rests on: any merge tree over the same observations
// yields the identical sketch, byte for byte.
func TestSketchMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([][]int64, 5)
	for p := range parts {
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			parts[p] = append(parts[p], rng.Int63n(1_000_000_000)-5) // includes <=0
		}
	}
	build := func(vals []int64) *sketch {
		var s sketch
		for _, v := range vals {
			s.add(v)
		}
		return &s
	}
	sketchEqual := func(a, b *sketch) bool {
		if a.Off != b.Off || a.Zeros != b.Zeros || a.N != b.N ||
			a.Sum != b.Sum || a.Min != b.Min || a.Max != b.Max ||
			len(a.Bins) != len(b.Bins) {
			return false
		}
		for i := range a.Bins {
			if a.Bins[i] != b.Bins[i] {
				return false
			}
		}
		return true
	}

	// Reference: single sketch over the concatenation.
	var all []int64
	for _, p := range parts {
		all = append(all, p...)
	}
	ref := build(all)

	// Left fold, right fold, pairwise tree, and a shuffled order must
	// all equal the reference exactly.
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}
	for _, order := range orders {
		var acc sketch
		for _, idx := range order {
			acc.merge(build(parts[idx]))
		}
		if !sketchEqual(&acc, ref) {
			t.Fatalf("fold order %v diverged from direct build", order)
		}
	}
	// Balanced tree: ((0+1)+(2+3))+4.
	l := build(parts[0])
	l.merge(build(parts[1]))
	r := build(parts[2])
	r.merge(build(parts[3]))
	l.merge(r)
	l.merge(build(parts[4]))
	if !sketchEqual(l, ref) {
		t.Fatal("balanced merge tree diverged from direct build")
	}
	// Merging an empty sketch is the identity.
	var empty sketch
	before := *ref
	ref.merge(&empty)
	if !sketchEqual(ref, &before) {
		t.Fatal("merging empty sketch changed state")
	}
}

func TestSketchEdgeCases(t *testing.T) {
	var s sketch
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty sketch quantile = %d, want 0", got)
	}
	if s.Buckets() != nil {
		t.Fatal("empty sketch has buckets")
	}
	s.add(0)
	s.add(-3)
	s.add(math.MaxInt64)
	if s.N != 3 || s.Zeros != 2 {
		t.Fatalf("N=%d zeros=%d, want 3, 2", s.N, s.Zeros)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("median of {-3,0,max} = %d, want 0", got)
	}
	if got := s.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("p100 clamps to exact max, got %d", got)
	}
	if s.Min != -3 || s.Max != math.MaxInt64 {
		t.Fatalf("min/max (%d, %d)", s.Min, s.Max)
	}
	if err := s.validate(); err != nil {
		t.Fatalf("valid sketch rejected: %v", err)
	}
	bad := s
	bad.N++
	if bad.validate() == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestSketchBuckets(t *testing.T) {
	var s sketch
	vals := []int64{0, 5, 5, 1000, 999999}
	for _, v := range vals {
		s.add(v)
	}
	bs := s.Buckets()
	if len(bs) == 0 || bs[0].Lo != 0 || bs[0].Hi != 0 || bs[0].Count != 1 {
		t.Fatalf("zero bucket wrong: %+v", bs)
	}
	var total uint64
	prevHi := int64(-1)
	for _, b := range bs {
		if b.Lo > b.Hi {
			t.Fatalf("inverted bucket %+v", b)
		}
		if b.Lo <= prevHi {
			t.Fatalf("buckets overlap: %+v after hi=%d", b, prevHi)
		}
		prevHi = b.Hi
		total += b.Count
	}
	if total != s.N {
		t.Fatalf("bucket counts sum %d, want %d", total, s.N)
	}
}

func TestTopKSpaceSaving(t *testing.T) {
	tk := newTopK(3)
	counts := map[string]int{"a": 100, "b": 50, "c": 30, "d": 2, "e": 1}
	// Interleave deterministically.
	for i := 0; i < 100; i++ {
		for key, n := range counts {
			if i < n {
				tk.add(key)
			}
		}
	}
	top := tk.top()
	if len(top) != 3 {
		t.Fatalf("len=%d, want 3", len(top))
	}
	if top[0].Key != "a" || top[1].Key != "b" || top[2].Key != "c" {
		t.Fatalf("top keys %v", top)
	}
	// Space-saving guarantee: Count-Err <= true count <= Count.
	for _, it := range top {
		want := uint64(counts[it.Key])
		if it.Count < want || it.Count-it.Err > want {
			t.Errorf("%s: count %d err %d vs true %d violates bound", it.Key, it.Count, it.Err, want)
		}
	}
	if err := tk.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopKMerge(t *testing.T) {
	a, b := newTopK(2), newTopK(2)
	for key, n := range map[string]int{"x": 10, "y": 5} {
		for i := 0; i < n; i++ {
			a.add(key)
		}
	}
	for key, n := range map[string]int{"x": 7, "z": 6} {
		for i := 0; i < n; i++ {
			b.add(key)
		}
	}
	a.merge(b)
	top := a.top()
	if len(top) != 2 || top[0].Key != "x" || top[0].Count != 17 {
		t.Fatalf("merged top %v", top)
	}
	// z (6) beat y (5); survivors' error absorbs the dropped weight.
	if top[1].Key != "z" || top[1].Err < 5 {
		t.Fatalf("expected z with err >= 5 (dropped y), got %v", top[1])
	}
	if err := a.validate(); err != nil {
		t.Fatal(err)
	}
	// Merge with nil/empty is identity.
	before := a.top()
	a.merge(nil)
	a.merge(newTopK(2))
	after := a.top()
	if len(before) != len(after) || before[0] != after[0] {
		t.Fatal("nil/empty merge changed state")
	}
}
