package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fastsafe/internal/race"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.min != 0 || h.max != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(42)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if h.min != 42 || h.max != 42 {
		t.Fatalf("Min/Max = %d/%d, want 42/42", h.min, h.max)
	}
	if h.Mean() != 42 {
		t.Fatalf("Mean = %v, want 42", h.Mean())
	}
	if got := h.Quantile(0.5); got != 42 {
		t.Fatalf("Quantile(0.5) = %d, want 42", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.min != 0 {
		t.Fatalf("negative sample should clamp to 0, got min %d", h.min)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1_000_000)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		// Bucketed estimate must be within ~3.2% relative error of exact.
		lo := float64(exact) * 0.968
		hi := float64(exact) * 1.032
		if float64(got) < lo-64 || float64(got) > hi+64 {
			t.Errorf("Quantile(%v) = %d, exact %d (out of tolerance)", q, got, exact)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %d, want min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %d, want max 100", got)
	}
	if got := h.Quantile(-0.5); got != 1 {
		t.Fatalf("Quantile(-0.5) = %d, want min", got)
	}
	if got := h.Quantile(2); got != 100 {
		t.Fatalf("Quantile(2) = %d, want max", got)
	}
}

func TestHistogramPercentilesMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(100000))
	}
	p := h.Percentiles()
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			t.Fatalf("percentiles not monotonic: %v", p)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Reset()
	if h.Count() != 0 || h.sum != 0 || h.max != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(7)
	if h.min != 7 {
		t.Fatalf("Min after reset+observe = %d, want 7", h.min)
	}
}

func TestBucketKeySmallValuesExact(t *testing.T) {
	for v := int64(0); v < subBuckets; v++ {
		if bucketKey(v) != v {
			t.Fatalf("bucketKey(%d) = %d, want exact", v, bucketKey(v))
		}
	}
}

func TestPropertyBucketKeyBounds(t *testing.T) {
	// Bucket lower bound never exceeds the value and is within ~1/64 of it.
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		k := bucketKey(v)
		if k > v {
			return false
		}
		return float64(v-k) <= float64(v)/32+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(10)
	if s := h.String(); s == "" {
		t.Fatal("String() returned empty")
	}
}

// histBoundaries are the row boundaries: 0, the ends of row 0 and row 1,
// 2^k-1 and 2^k for every larger power of two, and MaxInt64.
func histBoundaries() []int64 {
	vs := []int64{0, 63, 64, 127, 128}
	for k := 8; k < 63; k++ {
		vs = append(vs, 1<<k-1, 1<<k)
	}
	return append(vs, math.MaxInt64)
}

// TestHistogramRowBoundaries: a sample at each row boundary lands in the
// bucket bucketKey names, alone and among the others, read through
// Quantile at every rank and through Percentiles.
func TestHistogramRowBoundaries(t *testing.T) {
	for _, c := range []struct{ v, key int64 }{
		{63, 63}, {64, 64}, {127, 127}, {128, 128}, {255, 254},
		{1<<40 - 1, 1<<40 - 1<<33}, {math.MaxInt64, 127 << 56},
	} {
		if got := bucketKey(c.v); got != c.key {
			t.Errorf("bucketKey(%d) = %d, want %d", c.v, got, c.key)
		}
	}
	vs := histBoundaries()
	var all Histogram
	for _, v := range vs {
		if r, i := bucket(v); bucketLow(r, i) != bucketKey(v) {
			t.Errorf("%d: row %d sub-bucket %d starts at %d, bucketKey %d", v, r, i, bucketLow(r, i), bucketKey(v))
		}
		var h Histogram
		h.Observe(v)
		if got := h.Quantile(0.5); got != bucketKey(v) {
			t.Errorf("one sample %d: Quantile(0.5) = %d, want %d", v, got, bucketKey(v))
		}
		if p := h.Percentiles(); p != [5]int64{bucketKey(v), bucketKey(v), bucketKey(v), bucketKey(v), bucketKey(v)} {
			t.Errorf("one sample %d: Percentiles %v, want bucketKey %d", v, p, bucketKey(v))
		}
		all.Observe(v)
	}
	n := float64(len(vs)) // vs is sorted
	for i, v := range vs {
		if got := all.Quantile((float64(i) + 0.5) / n); got != bucketKey(v) {
			t.Errorf("rank %d of %d: Quantile = %d, want bucketKey(%d) = %d", i+1, len(vs), got, v, bucketKey(v))
		}
	}
	p := all.Percentiles()
	for j, q := range []float64{0.50, 0.90, 0.99, 0.999, 0.9999} {
		if want := bucketKey(vs[int(math.Ceil(q*n))-1]); p[j] != want {
			t.Errorf("Percentiles[%d] (q=%g) = %d, want %d", j, q, p[j], want)
		}
	}
	if all.min != 0 || all.max != math.MaxInt64 || all.Quantile(1) != math.MaxInt64 {
		t.Errorf("min %d max %d Quantile(1) %d, want 0 and MaxInt64 twice", all.min, all.max, all.Quantile(1))
	}
}

// TestHistogramResetReusesRows: Reset zeroes the rows it keeps, so the
// samples after it allocate nothing and count from zero.
func TestHistogramResetReusesRows(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	vs := histBoundaries()
	var h Histogram
	for _, v := range vs {
		h.Observe(v)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.Reset()
		for _, v := range vs {
			h.Observe(v)
		}
	}); n != 0 {
		t.Fatalf("Reset then observe: %v allocs, want 0", n)
	}
	h.Reset()
	h.Observe(1 << 20)
	if h.Count() != 1 || h.min != 1<<20 || h.Quantile(0.001) != 1<<20 || h.Quantile(0.999) != 1<<20 {
		t.Fatalf("after Reset: count %d min %d quantiles %d %d, want one sample of 2^20",
			h.Count(), h.min, h.Quantile(0.001), h.Quantile(0.999))
	}
}
