package iommu

import (
	"testing"

	"fastsafe/internal/ptable"
)

func newMapped(t *testing.T, cfg Config, pages int) *IOMMU {
	t.Helper()
	m := New(cfg)
	for i := 0; i < pages; i++ {
		v := ptable.IOVA(uint64(i) * ptable.PageSize)
		if err := m.TableOf(0).Map(v, ptable.Phys(0x100000+uint64(i)*ptable.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestColdTranslationWalksFourLevels(t *testing.T) {
	m := newMapped(t, Config{}, 1)
	tr := m.TranslateIn(0, 0)
	if !tr.OK() || byIOTLB(tr) {
		t.Fatalf("translation = %+v, want cold walk", tr)
	}
	if tr.MemReads() != 4 {
		t.Fatalf("MemReads = %d, want 4 (all caches cold)", tr.MemReads())
	}
	c := m.Counters()
	if c.IOTLBMisses != 1 || c.L3Misses != 1 || c.L2Misses != 1 || c.L1Misses != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestWarmTranslationHitsIOTLB(t *testing.T) {
	m := newMapped(t, Config{}, 1)
	m.TranslateIn(0, 0)
	tr := m.TranslateIn(0, 0)
	if !byIOTLB(tr) || tr.MemReads() != 0 {
		t.Fatalf("second translation = %+v, want IOTLB hit", tr)
	}
	if got := m.Counters().IOTLBHits; got != 1 {
		t.Fatalf("IOTLBHits = %d, want 1", got)
	}
}

func TestPTCacheReducesWalkToOneRead(t *testing.T) {
	m := newMapped(t, Config{}, 2)
	m.TranslateIn(0, 0) // cold: 4 reads, fills PTcaches
	// Neighbouring page shares all PTcache entries: 1 read (PT-L4 entry).
	tr := m.TranslateIn(0, ptable.PageSize)
	if byIOTLB(tr) {
		t.Fatal("distinct page should miss IOTLB")
	}
	if tr.MemReads() != 1 {
		t.Fatalf("MemReads = %d, want 1 (PTcache-L3 hit)", tr.MemReads())
	}
	c := m.Counters()
	if c.MemReads != 5 {
		t.Fatalf("total MemReads = %d, want 5", c.MemReads)
	}
}

func TestPartialPTCacheHitL2(t *testing.T) {
	m := New(Config{})
	// Two pages in different 2MB spans but the same 1GB span: after
	// translating the first and invalidating only its L3 entry, the second
	// gets an L2 hit -> 2 reads.
	a := ptable.IOVA(0)
	b := ptable.IOVA(ptable.L4PageSpan)
	if err := m.TableOf(0).Map(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.TableOf(0).Map(b, 2); err != nil {
		t.Fatal(err)
	}
	m.TranslateIn(0, a)
	tr := m.TranslateIn(0, b)
	if tr.MemReads() != 2 {
		t.Fatalf("MemReads = %d, want 2 (L2 hit, L3 miss)", tr.MemReads())
	}
	c := m.Counters()
	if c.L3Misses != 2 || c.L2Misses != 1 || c.L1Misses != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPartialPTCacheHitL1(t *testing.T) {
	m := New(Config{})
	a := ptable.IOVA(0)
	b := ptable.IOVA(ptable.L3PageSpan) // different 1GB span, same 512GB
	if err := m.TableOf(0).Map(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.TableOf(0).Map(b, 2); err != nil {
		t.Fatal(err)
	}
	m.TranslateIn(0, a)
	tr := m.TranslateIn(0, b)
	if tr.MemReads() != 3 {
		t.Fatalf("MemReads = %d, want 3 (L1 hit only)", tr.MemReads())
	}
}

func TestMemReadsArithmetic(t *testing.T) {
	// The paper's identity: MemReads = IOTLBMisses + L3 + L2 + L1 misses.
	m := newMapped(t, Config{}, 64)
	for i := 0; i < 64; i++ {
		m.TranslateIn(0, ptable.IOVA(uint64(i)*ptable.PageSize))
	}
	c := m.Counters()
	if c.MemReads != c.IOTLBMisses+c.L3Misses+c.L2Misses+c.L1Misses {
		t.Fatalf("identity violated: %+v", c)
	}
}

func TestTranslateUnmappedFaults(t *testing.T) {
	m := New(Config{})
	tr := m.TranslateIn(0, 0x5000)
	if tr.OK() {
		t.Fatal("translation of unmapped IOVA succeeded")
	}
	if m.Counters().Faults != 1 {
		t.Fatalf("Faults = %d, want 1", m.Counters().Faults)
	}
}

func TestInvalidateIOTLBOnlyPreservesPTCaches(t *testing.T) {
	m := newMapped(t, Config{}, 2)
	m.TranslateIn(0, 0)
	// F&S-style: IOTLB-only invalidation.
	m.InvalidateIn(0, 0, 1, true)
	tr := m.TranslateIn(0, 0)
	if byIOTLB(tr) {
		t.Fatal("IOTLB entry survived invalidation")
	}
	if tr.MemReads() != 1 {
		t.Fatalf("MemReads = %d, want 1 (PTcaches preserved)", tr.MemReads())
	}
	c := m.Counters()
	if c.PTInvalidated != 0 {
		t.Fatalf("PTInvalidated = %d, want 0", c.PTInvalidated)
	}
}

func TestInvalidateFullDropsPTCaches(t *testing.T) {
	m := newMapped(t, Config{}, 2)
	m.TranslateIn(0, 0)
	// Linux-style: invalidate IOTLB and all PTcache levels for the IOVA.
	m.InvalidateIn(0, 0, 1, false)
	tr := m.TranslateIn(0, 0)
	if tr.MemReads() != 4 {
		t.Fatalf("MemReads = %d, want 4 (PTcaches dropped)", tr.MemReads())
	}
	c := m.Counters()
	if c.PTInvalidated != 3 {
		t.Fatalf("PTInvalidated = %d, want 3", c.PTInvalidated)
	}
}

func TestInvalidationCrossIOVAInterference(t *testing.T) {
	// The §2.2 phenomenon: invalidating one IOVA's PTcache entries hurts
	// *other* IOVAs sharing those entries (Tx ACKs hurting Rx).
	m := newMapped(t, Config{}, 2)
	m.TranslateIn(0, 0) // fills shared PTcache entries
	m.InvalidateIn(0, ptable.PageSize, 1, false)
	// Page 0's own IOTLB entry survives a neighbour's invalidation.
	if tr := m.TranslateIn(0, 0); !byIOTLB(tr) {
		t.Fatal("unrelated invalidation dropped a live IOTLB entry")
	}
	// But a *different* page sharing the PTcache entries pays full walks.
	m2 := newMapped(t, Config{}, 3)
	m2.TranslateIn(0, 0)
	m2.InvalidateIn(0, ptable.PageSize, 1, false) // invalidates shared L1/L2/L3 keys
	tr2 := m2.TranslateIn(0, 2*ptable.PageSize)
	if tr2.MemReads() != 4 {
		t.Fatalf("MemReads = %d, want 4: invalidation killed shared entries", tr2.MemReads())
	}
}

func TestStaleIOTLBUseDetected(t *testing.T) {
	// Deferred-mode hole: unmap without invalidation leaves a usable
	// IOTLB entry.
	m := newMapped(t, Config{}, 1)
	m.TranslateIn(0, 0)
	if _, err := m.TableOf(0).Unmap(0, ptable.PageSize); err != nil {
		t.Fatal(err)
	}
	tr := m.TranslateIn(0, 0)
	if !tr.OK() || !tr.Stale() {
		t.Fatalf("translation = %+v, want stale hit", tr)
	}
	if m.Counters().StaleIOTLBUses != 1 {
		t.Fatalf("StaleIOTLBUses = %d, want 1", m.Counters().StaleIOTLBUses)
	}
}

func TestStrictInvalidationPreventsStaleUse(t *testing.T) {
	m := newMapped(t, Config{}, 1)
	m.TranslateIn(0, 0)
	if _, err := m.TableOf(0).Unmap(0, ptable.PageSize); err != nil {
		t.Fatal(err)
	}
	m.InvalidateIn(0, 0, 1, false)
	tr := m.TranslateIn(0, 0)
	if tr.OK() {
		t.Fatal("translation succeeded after strict unmap+invalidate")
	}
	if m.Counters().StaleIOTLBUses != 0 {
		t.Fatal("stale use counted after strict invalidation")
	}
}

func TestStalePTUseDetectedWithoutReclaimInvalidation(t *testing.T) {
	// Map a full 2MB span, translate (fills PTcache-L3), unmap the whole
	// span in one call (reclaims the PT-L4 page), do NOT invalidate
	// PTcaches, remap, translate: the PTcache-L3 entry points to the dead
	// page and must be flagged.
	m := New(Config{})
	for i := 0; i < 512; i++ {
		if err := m.TableOf(0).Map(ptable.IOVA(uint64(i)*ptable.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	m.TranslateIn(0, 0)
	res, err := m.TableOf(0).Unmap(0, ptable.L4PageSpan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reclaimed) == 0 {
		t.Fatal("expected reclamation")
	}
	m.InvalidateIn(0, 0, 1, true) // drop the IOTLB entry but keep PTcaches
	if err := m.TableOf(0).Map(0, 2); err != nil {
		t.Fatal(err)
	}
	m.TranslateIn(0, 0)
	if m.Counters().StalePTUses == 0 {
		t.Fatal("stale PTcache use not detected after reclamation")
	}
}

func TestInvalidateReclaimedPreventsStalePTUse(t *testing.T) {
	// Same as above, but with the F&S reclamation hook: no stale use.
	m := New(Config{})
	for i := 0; i < 512; i++ {
		if err := m.TableOf(0).Map(ptable.IOVA(uint64(i)*ptable.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	m.TranslateIn(0, 0)
	res, err := m.TableOf(0).Unmap(0, ptable.L4PageSpan)
	if err != nil {
		t.Fatal(err)
	}
	m.InvalidateIn(0, 0, 1, true)
	m.InvalidateReclaimedIn(0, res.Reclaimed)
	if err := m.TableOf(0).Map(0, 2); err != nil {
		t.Fatal(err)
	}
	m.TranslateIn(0, 0)
	if m.Counters().StalePTUses != 0 {
		t.Fatalf("StalePTUses = %d, want 0 with reclamation invalidation", m.Counters().StalePTUses)
	}
}

func TestRangedInvalidationCoversAllPages(t *testing.T) {
	m := newMapped(t, Config{}, 8)
	for i := 0; i < 8; i++ {
		m.TranslateIn(0, ptable.IOVA(uint64(i)*ptable.PageSize))
	}
	m.InvalidateIn(0, 0, 8, true)
	c := m.Counters()
	if c.IOTLBInvalidated != 8 {
		t.Fatalf("IOTLBInvalidated = %d, want 8", c.IOTLBInvalidated)
	}
	if c.InvRequests != 1 {
		t.Fatalf("InvRequests = %d, want 1 (single ranged request)", c.InvRequests)
	}
}

func TestFlushInEmptiesTheDomain(t *testing.T) {
	m := newMapped(t, Config{}, 4)
	for i := 0; i < 4; i++ {
		m.TranslateIn(0, ptable.IOVA(uint64(i)*ptable.PageSize))
	}
	m.FlushIn(0)
	tlb, l1, l2, l3 := m.CacheOccupancy()
	if tlb+l1+l2+l3 != 0 {
		t.Fatalf("occupancy after flush = %d %d %d %d", tlb, l1, l2, l3)
	}
}

// TestResetCounters: nothing zeroes the counters; a run measures a
// window as the difference of two Counters snapshots taken at its ends
// (host.Run's warmup), so a snapshot is a copy later traffic leaves
// alone.
func TestResetCounters(t *testing.T) {
	m := newMapped(t, Config{}, 1)
	m.TranslateIn(0, 0)
	warm := m.Counters()
	m.TranslateIn(0, 0)
	if warm.Translations != 1 || warm.IOTLBMisses != 1 || warm.IOTLBHits != 0 {
		t.Fatalf("warmup snapshot moved: %+v", warm)
	}
	if end := m.Counters(); end.Translations-warm.Translations != 1 || end.IOTLBHits-warm.IOTLBHits != 1 || end.Walks != warm.Walks {
		t.Fatalf("window = %+v less %+v, want one IOTLB hit", end, warm)
	}
}

func TestIOTLBCapacityEviction(t *testing.T) {
	// Tiny IOTLB: translating more distinct pages than capacity evicts.
	m := newMapped(t, Config{IOTLBSets: 2, IOTLBWays: 1}, 8)
	for i := 0; i < 8; i++ {
		m.TranslateIn(0, ptable.IOVA(uint64(i)*ptable.PageSize))
	}
	// Re-translate the first page: must miss (evicted by conflicts).
	before := m.Counters().IOTLBMisses
	m.TranslateIn(0, 0)
	if m.Counters().IOTLBMisses != before+1 {
		t.Fatal("expected capacity/conflict miss in tiny IOTLB")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.IOTLBSets != 16 || cfg.IOTLBWays != 4 || cfg.L1Size != 32 || cfg.L2Size != 32 || cfg.L3Size != 32 {
		t.Fatalf("defaults = %+v", cfg)
	}
}
