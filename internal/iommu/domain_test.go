package iommu

import (
	"testing"

	"fastsafe/internal/ptable"
)

func TestDomainsHaveSeparateTables(t *testing.T) {
	m := New(Config{})
	d1 := m.CreateDomain()
	d2 := m.CreateDomain()
	if d1 == 0 || d2 == 0 || d1 == d2 {
		t.Fatalf("domain ids = %d, %d", d1, d2)
	}
	if m.TableOf(d1) == m.TableOf(d2) || m.TableOf(d1) == m.Table() {
		t.Fatal("domains share a page table")
	}
}

func TestCrossDomainIsolation(t *testing.T) {
	// The same IOVA in two domains maps to different physical pages, and a
	// domain with no mapping faults even when another domain's entry for
	// that address is hot in the shared caches.
	m := New(Config{})
	d1 := m.CreateDomain()
	d2 := m.CreateDomain()
	if err := m.TableOf(d1).Map(0x1000, 0xaaa000); err != nil {
		t.Fatal(err)
	}
	if err := m.TableOf(d2).Map(0x1000, 0xbbb000); err != nil {
		t.Fatal(err)
	}
	t1 := m.TranslateIn(d1, 0x1000)
	t2 := m.TranslateIn(d2, 0x1000)
	if !t1.OK() || !t2.OK() {
		t.Fatal("translations failed")
	}
	if t1.Phys == t2.Phys {
		t.Fatal("domains resolved the same IOVA to the same physical page")
	}
	// A third domain must fault despite both entries being cached.
	d3 := m.CreateDomain()
	if tr := m.TranslateIn(d3, 0x1000); tr.OK() {
		t.Fatal("unmapped domain translated through another domain's cache entry")
	}
}

func TestDomainScopedInvalidation(t *testing.T) {
	// Invalidating d1's IOVA must not disturb d2's identical IOVA.
	m := New(Config{})
	d1 := m.CreateDomain()
	d2 := m.CreateDomain()
	if err := m.TableOf(d1).Map(0x2000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.TableOf(d2).Map(0x2000, 2); err != nil {
		t.Fatal(err)
	}
	m.TranslateIn(d1, 0x2000)
	m.TranslateIn(d2, 0x2000)
	m.InvalidateIn(d1, 0x2000, 1, false)
	if tr := m.TranslateIn(d2, 0x2000); !tr.Served().IOTLB() {
		t.Fatal("d1's invalidation evicted d2's IOTLB entry")
	}
	// d1's entry must be gone and its PTcaches dropped (full walk).
	if tr := m.TranslateIn(d1, 0x2000); tr.Served().IOTLB() || tr.MemReads() != 4 {
		t.Fatalf("d1 after invalidation: %+v", tr)
	}
}

func TestDomainsContendForCacheCapacity(t *testing.T) {
	// Domains are isolated but share capacity: a domain streaming many
	// distinct PT-L3 spans evicts another domain's PTcache entries.
	m := New(Config{L3Size: 4})
	d1 := m.CreateDomain()
	d2 := m.CreateDomain()
	if err := m.TableOf(d1).Map(0, 1); err != nil {
		t.Fatal(err)
	}
	m.TranslateIn(d1, 0) // d1's L3 entry cached
	// d2 streams through 8 distinct 2MB spans.
	for i := 0; i < 8; i++ {
		v := ptable.IOVA(uint64(i) * ptable.L4PageSpan)
		if err := m.TableOf(d2).Map(v, ptable.Phys(i+1)); err != nil {
			t.Fatal(err)
		}
		m.TranslateIn(d2, v)
	}
	// d1's IOTLB entry survives (different key space, enough IOTLB room),
	// but its PTcache-L3 entry was evicted: invalidate the IOTLB entry and
	// re-translate — the walk must read more than one level.
	m.InvalidateIn(d1, 0, 1, true)
	if tr := m.TranslateIn(d1, 0); tr.MemReads() < 2 {
		t.Fatalf("d1 walk reads = %d, want >= 2 after capacity eviction", tr.MemReads())
	}
}

func TestDefaultDomainCompatibility(t *testing.T) {
	// The domain-less API operates on domain 0.
	m := New(Config{})
	if err := m.Table().Map(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	if tr := m.Translate(0x1000); !tr.OK() || tr.Phys != 7 {
		t.Fatalf("default-domain translation = %+v", tr)
	}
	m.Invalidate(0x1000, 1, false)
	if tr := m.Translate(0x1000); tr.Served().IOTLB() {
		t.Fatal("default-domain invalidation failed")
	}
}

// TestFlushInIsDomainSelective: one domain's flush (Linux's flush queue
// draining a deferred batch) drops that domain's IOTLB and PTcache
// entries, 2MB ones included, and leaves every other domain's hitting.
func TestFlushInIsDomainSelective(t *testing.T) {
	m := New(Config{})
	d1, d2 := m.CreateDomain(), m.CreateDomain()
	huge := ptable.IOVA(ptable.L3PageSpan) // its own PT-L2 subtree
	for _, d := range []DomainID{d1, d2} {
		for i := 0; i < 2; i++ {
			if err := m.TableOf(d).Map(ptable.IOVA(i*ptable.PageSize), ptable.Phys(i+1)<<ptable.PageShift); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.TableOf(d).MapHuge(huge, 1<<30); err != nil {
			t.Fatal(err)
		}
		m.TranslateIn(d, 0)
		m.TranslateIn(d, huge)
	}
	m.FlushIn(d1)
	if tr := m.TranslateIn(d2, 0); !tr.Served().IOTLB() {
		t.Fatalf("d2 after d1's flush: %+v, want an IOTLB hit", tr)
	}
	if tr := m.TranslateIn(d2, huge+ptable.PageSize); !tr.Served().IOTLB() {
		t.Fatalf("d2's 2MB entry after d1's flush: %+v, want an IOTLB hit", tr)
	}
	if tr := m.TranslateIn(d2, ptable.PageSize); tr.Served().IOTLB() || tr.MemReads() != 1 {
		t.Fatalf("d2 neighbour walk after d1's flush: %+v, want a PTcache-L3 hit", tr)
	}
	if tr := m.TranslateIn(d1, 0); tr.Served().IOTLB() || tr.MemReads() != 4 {
		t.Fatalf("d1 after its flush: %+v, want a cold walk", tr)
	}
	if tr := m.TranslateIn(d1, huge); tr.Served().IOTLB() || tr.MemReads() != 2 {
		t.Fatalf("d1's 2MB walk after its flush: %+v, want a walk from the PTcache-L1 entry", tr)
	}
}
