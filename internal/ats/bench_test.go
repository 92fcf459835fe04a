package ats

import (
	"testing"

	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
)

// BenchmarkATC times the device TLB's lookup paths with no audit hook,
// as a run without a fault plan has them. An op is one Translate, or one
// TranslateRun of nine transactions 256 bytes apart in one page (a
// DMA's worth of lookups at the workload's 9 per DMA). Every case
// allocates nothing.
func BenchmarkATC(b *testing.B) {
	const pages = 128
	setup := func(b *testing.B, entries int) (*Cache, []ptable.IOVA) {
		m := iommu.New(iommu.Config{})
		d := m.CreateDomain()
		vs := make([]ptable.IOVA, pages)
		for i := range vs {
			vs[i] = ptable.IOVA(1<<30 + i*ptable.PageSize)
			if err := m.TableOf(d).Map(vs[i], ptable.Phys(1<<32+i*ptable.PageSize)); err != nil {
				b.Fatal(err)
			}
		}
		return New(m, d, m.TranslatorOf(d), Config{Entries: entries}), vs
	}
	b.Run("head_hit", func(b *testing.B) {
		a, vs := setup(b, 1024)
		a.Translate(vs[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Translate(vs[0] + 512)
		}
	})
	b.Run("map_hit", func(b *testing.B) {
		a, vs := setup(b, 1024)
		a.Translate(vs[0])
		a.Translate(vs[1])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternating pages: the entry wanted is never the head.
			a.Translate(vs[i&1])
		}
	})
	b.Run("run9", func(b *testing.B) {
		a, vs := setup(b, 1024)
		a.Translate(vs[0])
		a.Translate(vs[1])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternating pages: each run's first lookup probes the map.
			a.TranslateRun(vs[i&1], 9, 256)
		}
	})
	b.Run("miss_at_capacity", func(b *testing.B) {
		// Cycling over twice the capacity: every lookup misses, asks the
		// IOMMU and evicts the LRU entry.
		a, vs := setup(b, pages/2)
		for _, v := range vs {
			a.Translate(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Translate(vs[i%pages])
		}
	})
}
