package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestRegistryCreateOnFirstUse(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Value("depth"); ok {
		t.Fatal("Value invented a gauge")
	}
	depth := 2.5
	r.GaugeFunc("depth", func() float64 { return depth })
	depth -= 0.5
	if v, ok := r.Value("depth"); !ok || v != 2 {
		t.Fatalf("Value(depth) = %v,%v, want 2,true", v, ok)
	}

	h := new(Histogram)
	r.AddHistogram("lat", h)
	h.Observe(10)
	if r.LookupHistogram("lat") != h {
		t.Fatal("LookupHistogram did not return the registered histogram")
	}
	if r.LookupHistogram("absent") != nil {
		t.Fatal("LookupHistogram invented a histogram")
	}
	if _, ok := r.Value("lat"); ok {
		t.Fatal("Value must not report histograms as scalars")
	}
}

func TestRegistryGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := int64(7)
	r.GaugeFunc("live", func() float64 { return float64(n) })
	if v, _ := r.Value("live"); v != 7 {
		t.Fatalf("Value = %v, want 7", v)
	}
	n = 9
	if v, _ := r.Value("live"); v != 9 {
		t.Fatalf("Value = %v, want live read 9", v)
	}
}

// A name identifies one instrument: registering it again, as either
// kind, is a wiring bug and panics.
func TestRegistryDuplicateNamePanics(t *testing.T) {
	gauge := func(r *Registry) { r.GaugeFunc("x", func() float64 { return 0 }) }
	hist := func(r *Registry) { r.AddHistogram("x", new(Histogram)) }
	for _, tc := range []struct {
		name          string
		first, second func(*Registry)
	}{
		{"gauge twice", gauge, gauge},
		{"histogram twice", hist, hist},
		{"histogram then gauge", hist, gauge},
	} {
		r := NewRegistry()
		tc.first(r)
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), `"x" registered twice`) {
					t.Errorf("%s: panic = %v, want the name registered twice", tc.name, p)
				}
			}()
			tc.second(r)
		}()
	}
}

func TestRegistryAdoptedHistogramIsShared(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	h.Observe(5)
	r.AddHistogram("rpc", &h)
	h.Observe(6)
	if got := r.LookupHistogram("rpc").Count(); got != 2 {
		t.Fatalf("adopted histogram count = %d, want 2 (shared object)", got)
	}
}

// Registry dumps must be deterministic: sorted by name regardless of
// registration order or Go's map iteration order.
func TestRegistryDumpOrderDeterministic(t *testing.T) {
	names := []string{"nic.rx", "iommu.walks", "mem.util", "a", "zz", "pcie.lat"}
	build := func(perm []int) *Registry {
		r := NewRegistry()
		for _, i := range perm {
			n := names[i]
			switch i % 3 {
			case 0:
				r.GaugeFunc(n, func() float64 { return float64(i) })
			case 1:
				v := float64(i) / 2
				r.GaugeFunc(n, func() float64 { return v })
			default:
				h := new(Histogram)
				h.Observe(int64(i))
				r.AddHistogram(n, h)
			}
		}
		return r
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(names))
	ref := build([]int{0, 1, 2, 3, 4, 5})
	got := build(perm)
	if ref.String() != got.String() {
		t.Fatalf("dump depends on registration order:\n%s\nvs\n%s", ref, got)
	}
	if !sort.StringsAreSorted(got.Names()) {
		t.Fatalf("Names() not sorted: %v", got.Names())
	}
	for i := 0; i < 10; i++ {
		if got.String() != ref.String() {
			t.Fatal("String() not stable across repeated calls")
		}
	}
	if !strings.Contains(ref.String(), "iommu.walks=0.5") {
		t.Fatalf("unexpected dump contents:\n%s", ref)
	}
}

// Histogram quantiles must agree exactly with a sorted-slice oracle after
// both are pushed through the bucket quantisation: the histogram's
// Quantile(q) is the bucket lower bound of the sample at rank ceil(q*n).
func TestHistogramQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		var v int64
		switch i % 3 {
		case 0:
			v = rng.Int63n(100) // dense small values, below bucket quantisation
		case 1:
			v = rng.Int63n(1 << 20)
		default:
			v = rng.Int63n(1 << 40)
		}
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
		rank := int64(math.Ceil(q * float64(len(samples))))
		oracle := bucketKey(samples[rank-1])
		if got := h.Quantile(q); got != oracle {
			t.Fatalf("Quantile(%g) = %d, oracle (rank %d) = %d", q, got, rank, oracle)
		}
	}
	if h.Quantile(0) != h.min || h.Quantile(1) != h.max {
		t.Fatal("extreme quantiles must return min/max")
	}
}
