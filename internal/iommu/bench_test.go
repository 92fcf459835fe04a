package iommu

import (
	"fmt"
	"math/rand"
	"testing"

	"fastsafe/internal/ptable"
)

func benchIOMMU(b *testing.B, pages int) *IOMMU {
	b.Helper()
	m := New(Config{})
	for i := 0; i < pages; i++ {
		if err := m.Table().Map(ptable.IOVA(uint64(i)*ptable.PageSize), ptable.Phys(i)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkTranslateIOTLBHit(b *testing.B) {
	m := benchIOMMU(b, 1)
	m.Translate(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Translate(0)
	}
}

func BenchmarkTranslateWalkPTCacheHit(b *testing.B) {
	m := benchIOMMU(b, 2)
	m.Translate(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(ptable.PageSize, 1, true)
		m.Translate(ptable.PageSize)
	}
}

func BenchmarkTranslateColdWalk(b *testing.B) {
	m := benchIOMMU(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(0, 2, false)
		m.Translate(0)
	}
}

func BenchmarkInvalidateRange(b *testing.B) {
	m := benchIOMMU(b, 64)
	for i := 0; i < 64; i++ {
		m.Translate(ptable.IOVA(uint64(i) * ptable.PageSize))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate(0, 64, true)
	}
}

// BenchmarkLRU looks up a stream of keys in a full cache and inserts each
// miss, at the IOTLB set's 4 entries, the PTcaches' default 32 and the
// largest PTcache-L3 a figure sweeps (128). In the mru stream seven
// accesses in eight reuse one of the two most recent keys, the depth
// real IOTLB and PTcache hits land at; the uniform stream draws every key
// from twice the capacity, so hits spread over the whole cache, the
// array layout's worst case.
func BenchmarkLRU(b *testing.B) {
	for _, capacity := range []int{4, 32, 128} {
		for _, stream := range []string{"mru", "uniform"} {
			b.Run(fmt.Sprintf("%s/%d", stream, capacity), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				keys := make([]uint64, 1<<12)
				for i := range keys {
					keys[i] = uint64(rng.Intn(2 * capacity))
					if stream == "mru" && i >= 2 && rng.Intn(8) != 0 {
						keys[i] = keys[i-1-rng.Intn(2)]
					}
				}
				c := newLRU(capacity)
				for k := 0; k < capacity; k++ {
					c.put(uint64(k), 0)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := keys[i&(len(keys)-1)]
					if _, ok := c.get(k); !ok {
						c.put(k, k)
					}
				}
			})
		}
	}
}

// runCase is one nine-transaction run through a domain's direct
// Translator, on state where its first transaction takes one path.
type runCase struct {
	name string
	run  func() int
}

// runCases builds the runs BenchmarkTranslateRun times: the first
// transaction hits a 4KB IOTLB entry, walks from a PTcache-L3 hit (after
// an IOTLB-only invalidation), hits a 2MB IOTLB entry, or is a
// capability check.
func runCases(tb testing.TB) []runCase {
	const huge = ptable.IOVA(ptable.HugeSize)
	m := New(Config{})
	d, capDom := m.CreateDomain(), m.CreateDomain()
	if err := m.TableOf(d).Map(0, 1<<ptable.PageShift); err != nil {
		tb.Fatal(err)
	}
	if err := m.TableOf(d).MapHuge(huge, 1<<30); err != nil {
		tb.Fatal(err)
	}
	m.AttachCapTable(capDom).Grant(0, 1<<ptable.PageShift)
	tr, capTr := m.TranslatorOf(d), m.TranslatorOf(capDom)
	tr.TranslateRun(0, 1, 0)
	tr.TranslateRun(huge, 1, 0)
	return []runCase{
		{"hit", func() int { return tr.TranslateRun(0x40, 9, 256) }},
		{"walk", func() int {
			tr.Invalidate(0, 1, true)
			return tr.TranslateRun(0x40, 9, 256)
		}},
		{"2MB", func() int { return tr.TranslateRun(huge+3*ptable.PageSize+0x40, 9, 256) }},
		{"cap", func() int { return capTr.TranslateRun(0x40, 9, 256) }},
	}
}

// runReads keeps the benchmarked runs' results live.
var runReads int

func BenchmarkTranslateRun(b *testing.B) {
	for _, tc := range runCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runReads += tc.run()
			}
		})
	}
}

// BenchmarkCapTable times the capability table at a serving run's
// census, about 8,700 live grants in about 90 2MB regions: grant then
// revoke one 64-page descriptor that straddles two regions of its own,
// and check a DMA at a live grant drawn uniformly.
func BenchmarkCapTable(b *testing.B) {
	const regions, perRegion = 90, 97
	region := ptable.IOVA(ptable.L4PageSpan)
	// The census lies in a 4GB window below the top of the IOVA space,
	// where the allocator hands out IOVAs.
	window := ptable.IOVA(ptable.AddrSpace) - 2048*region
	m := New(Config{})
	d := m.CreateDomain()
	ct := m.AttachCapTable(d)
	rng := rand.New(rand.NewSource(1))
	var live []ptable.IOVA
	spans := rng.Perm(2048)
	for _, r := range spans[:regions] {
		for _, s := range rng.Perm(ptable.EntriesPerPage)[:perRegion] {
			v := window + ptable.IOVA(r)*region + ptable.IOVA(s*ptable.PageSize)
			ct.Grant(v, ptable.Phys(len(live)+1)<<ptable.PageShift)
			live = append(live, v)
		}
	}
	desc := window + ptable.IOVA(spans[regions])*region - 32*ptable.PageSize
	b.Run("grant+revoke64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p := 0; p < 64; p++ {
				ct.Grant(desc+ptable.IOVA(p*ptable.PageSize), ptable.Phys(p+1)<<ptable.PageShift)
			}
			for p := 0; p < 64; p++ {
				ct.Revoke(desc + ptable.IOVA(p*ptable.PageSize))
			}
		}
	})
	checks := make([]ptable.IOVA, 4096)
	for i := range checks {
		checks[i] = live[rng.Intn(len(live))] + 0x40
	}
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runReads += m.TranslateIn(d, checks[i&4095]).MemReads()
		}
	})
}
