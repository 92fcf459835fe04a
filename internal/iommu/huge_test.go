package iommu

import (
	"testing"

	"fastsafe/internal/ptable"
)

func TestHugeTranslationColdThenHot(t *testing.T) {
	m := New(Config{})
	if err := m.Table().MapHuge(0, 0x40000000); err != nil {
		t.Fatal(err)
	}
	// Cold: PTcache-L1/L2 miss, three reads (the PT-L3 entry is the leaf).
	tr := m.Translate(0x5000)
	if !tr.OK() || tr.Served().IOTLB() {
		t.Fatalf("cold huge translation = %+v", tr)
	}
	if tr.MemReads() != 3 {
		t.Fatalf("cold huge MemReads = %d, want 3", tr.MemReads())
	}
	if tr.Phys != 0x40000000+0x5000 {
		t.Fatalf("Phys = %#x", uint64(tr.Phys))
	}
	// Hot: any address in the same 2MB hits the single huge IOTLB entry.
	tr = m.Translate(0x1ff000)
	if !tr.Served().IOTLB() || tr.MemReads() != 0 {
		t.Fatalf("hot huge translation = %+v", tr)
	}
	if tr.Phys != 0x40000000+0x1ff000 {
		t.Fatalf("hot Phys = %#x", uint64(tr.Phys))
	}
}

func TestHugeWalkWithWarmPTCacheL2(t *testing.T) {
	m := New(Config{})
	if err := m.Table().MapHuge(0, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := m.Table().MapHuge(ptable.IOVA(ptable.HugeSize), 1<<31); err != nil {
		t.Fatal(err)
	}
	m.Translate(0) // warms PTcache-L1/L2
	tr := m.Translate(ptable.IOVA(ptable.HugeSize))
	if tr.MemReads() != 1 {
		t.Fatalf("warm huge walk MemReads = %d, want 1 (PTcache-L2 hit)", tr.MemReads())
	}
	// Reads identity holds for huge walks too.
	c := m.Counters()
	if c.MemReads != c.IOTLBMisses+c.L3Misses+c.L2Misses+c.L1Misses {
		t.Fatalf("identity violated: %+v", c)
	}
}

func TestHugeIOTLBReach(t *testing.T) {
	// 512 pages, one IOTLB entry: translating every page costs exactly one
	// IOTLB miss.
	m := New(Config{})
	if err := m.Table().MapHuge(0, 1<<30); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 512; p++ {
		m.Translate(ptable.IOVA(p * ptable.PageSize))
	}
	if c := m.Counters(); c.IOTLBMisses != 1 {
		t.Fatalf("IOTLBMisses = %d, want 1 for a whole hugepage", c.IOTLBMisses)
	}
}

func TestHugeInvalidation(t *testing.T) {
	m := New(Config{})
	if err := m.Table().MapHuge(0, 1<<30); err != nil {
		t.Fatal(err)
	}
	m.Translate(0)
	if err := m.Table().UnmapHuge(0); err != nil {
		t.Fatal(err)
	}
	m.Invalidate(0, 512, true)
	tr := m.Translate(0)
	if tr.OK() {
		t.Fatal("huge mapping reachable after unmap+invalidate")
	}
	if m.Counters().StaleIOTLBUses != 0 {
		t.Fatal("stale use after proper invalidation")
	}
}

func TestHugeStaleUseDetected(t *testing.T) {
	// Unmap without invalidation: the huge IOTLB entry is stale.
	m := New(Config{})
	if err := m.Table().MapHuge(0, 1<<30); err != nil {
		t.Fatal(err)
	}
	m.Translate(0)
	if err := m.Table().UnmapHuge(0); err != nil {
		t.Fatal(err)
	}
	tr := m.Translate(0x1000)
	if !tr.OK() || !tr.Stale() {
		t.Fatalf("translation = %+v, want stale huge hit", tr)
	}
	if m.Counters().StaleIOTLBUses != 1 {
		t.Fatal("stale huge use not counted")
	}
}
