package core

import (
	"testing"

	"fastsafe/internal/ptable"
)

func newDomain(t *testing.T, mode Mode) *Domain {
	t.Helper()
	return mustDomain(t, Config{Mode: mode, NumCPUs: 2, DescriptorPages: 64})
}

func mustDomain(t *testing.T, cfg Config) *Domain {
	t.Helper()
	d, err := NewDomain(cfg)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	return d
}

func TestModeStringRoundtrip(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("roundtrip %v -> %v", m, got)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Fatal("ParseMode accepted junk")
	}
}

func TestModePredicates(t *testing.T) {
	if Off.Translated() {
		t.Fatal("Off should not translate")
	}
	for _, m := range []Mode{Strict, StrictPreserve, StrictContig, FNS} {
		if !m.StrictSafety() {
			t.Fatalf("%v should have strict safety", m)
		}
	}
	for _, m := range []Mode{Off, Deferred, Persistent} {
		if m.StrictSafety() {
			t.Fatalf("%v should not have strict safety", m)
		}
	}
	if !FNS.Contiguous() || !StrictContig.Contiguous() || Strict.Contiguous() {
		t.Fatal("Contiguous predicate wrong")
	}
	if !FNS.PreservesPTCaches() || !StrictPreserve.PreservesPTCaches() || StrictContig.PreservesPTCaches() {
		t.Fatal("PreservesPTCaches predicate wrong")
	}
}

func TestOffModeNoIOMMUWork(t *testing.T) {
	d := newDomain(t, Off)
	desc, cost, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("Off map cost = %v, want 0", cost)
	}
	if len(desc.IOVAs) != 64 {
		t.Fatalf("descriptor pages = %d, want 64", len(desc.IOVAs))
	}
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	if d.IOMMU().Table().Mappings() != 0 {
		t.Fatal("Off mode touched the page table")
	}
}

func TestStrictRxMapsEveryPage(t *testing.T) {
	d := newDomain(t, Strict)
	desc, cost, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("strict map should cost CPU time")
	}
	if d.IOMMU().Table().Mappings() != 64 {
		t.Fatalf("mappings = %d, want 64", d.IOMMU().Table().Mappings())
	}
	for _, v := range desc.IOVAs {
		if !d.IOMMU().Table().Mapped(v) {
			t.Fatalf("%v not mapped", v)
		}
	}
}

func TestStrictSafetyAfterUnmap(t *testing.T) {
	// The strict property: after descriptor completion, every translation
	// of its IOVAs must fault with zero stale uses.
	for _, mode := range []Mode{Strict, StrictPreserve, StrictContig, FNS} {
		d := newDomain(t, mode)
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range desc.IOVAs {
			d.IOMMU().Translate(v)
		}
		if _, err := d.UnmapRxDescriptor(desc); err != nil {
			t.Fatal(err)
		}
		for _, v := range desc.IOVAs {
			tr := d.IOMMU().Translate(v)
			if tr.OK() {
				t.Fatalf("mode %v: device still reaches %v after unmap", mode, v)
			}
		}
		c := d.IOMMU().Counters()
		if c.StaleIOTLBUses != 0 || c.StalePTUses != 0 {
			t.Fatalf("mode %v: stale uses: %+v", mode, c)
		}
	}
}

func TestDeferredLeavesUnsafeWindow(t *testing.T) {
	d := mustDomain(t, Config{Mode: Deferred, NumCPUs: 1, DescriptorPages: 8, DeferredLimit: 1 << 20})
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.IOVAs {
		d.IOMMU().Translate(v)
	}
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	// Before the flush threshold, the device can still use the stale
	// IOTLB entries: the deferred-mode safety hole.
	stale := 0
	for _, v := range desc.IOVAs {
		if tr := d.IOMMU().Translate(v); tr.OK() && tr.Stale() {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("deferred mode unexpectedly revoked access before flush")
	}
	if d.PendingDeferred() != 8 {
		t.Fatalf("PendingDeferred = %d, want 8", d.PendingDeferred())
	}
}

func TestDeferredFlushRevokesAccess(t *testing.T) {
	d := mustDomain(t, Config{Mode: Deferred, NumCPUs: 1, DescriptorPages: 8, DeferredLimit: 8})
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.IOVAs {
		d.IOMMU().Translate(v)
	}
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	// Threshold reached: flush happened, access revoked, IOVAs freed.
	if d.PendingDeferred() != 0 {
		t.Fatalf("PendingDeferred = %d, want 0 after flush", d.PendingDeferred())
	}
	for _, v := range desc.IOVAs {
		if tr := d.IOMMU().Translate(v); tr.OK() {
			t.Fatalf("access to %v survived the deferred flush", v)
		}
	}
	if d.Counters().DeferredFlushes != 1 {
		t.Fatalf("DeferredFlushes = %d, want 1", d.Counters().DeferredFlushes)
	}
}

func TestFNSDescriptorContiguity(t *testing.T) {
	d := newDomain(t, FNS)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(desc.IOVAs); i++ {
		if desc.IOVAs[i] != desc.IOVAs[i-1]+ptable.PageSize {
			t.Fatalf("IOVAs not contiguous at %d", i)
		}
	}
	// At most 2 distinct PTcache-L3 keys per descriptor (§3).
	keys := map[uint64]bool{}
	for _, v := range desc.IOVAs {
		keys[v.L3Key()] = true
	}
	if len(keys) > 2 {
		t.Fatalf("descriptor spans %d L3 keys, want <= 2", len(keys))
	}
}

func TestFNSBatchedInvalidation(t *testing.T) {
	dStrict := newDomain(t, Strict)
	dFNS := newDomain(t, FNS)
	for _, d := range []*Domain{dStrict, dFNS} {
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.UnmapRxDescriptor(desc); err != nil {
			t.Fatal(err)
		}
	}
	if got := dStrict.Counters().InvRequests; got != 64 {
		t.Fatalf("strict InvRequests = %d, want 64 (Figure 6a)", got)
	}
	if got := dFNS.Counters().InvRequests; got != 1 {
		t.Fatalf("FNS InvRequests = %d, want 1 (Figure 6b)", got)
	}
}

func TestFNSCheaperCPUThanStrict(t *testing.T) {
	dStrict := newDomain(t, Strict)
	dFNS := newDomain(t, FNS)
	costOf := func(d *Domain) (total int64) {
		for i := 0; i < 10; i++ {
			desc, c1, err := d.MapRxDescriptor(0)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := d.UnmapRxDescriptor(desc)
			if err != nil {
				t.Fatal(err)
			}
			total += int64(c1 + c2)
		}
		return total
	}
	s, f := costOf(dStrict), costOf(dFNS)
	if f >= s {
		t.Fatalf("FNS CPU cost %d >= strict %d", f, s)
	}
}

func TestFNSPreservesPTCachesUnderTxInterference(t *testing.T) {
	// The §2.2 mechanism: Tx (ACK) unmaps invalidate PTcache entries the
	// Rx datapath shares, inflating Rx walk costs. FNS's IOTLB-only
	// invalidations keep the walk at ~1 memory read; Strict pays extra
	// upper-level reads after every interleaved Tx completion.
	run := func(mode Mode) float64 {
		d := newDomain(t, mode)
		for cycle := 0; cycle < 20; cycle++ {
			desc, _, err := d.MapRxDescriptor(0)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range desc.IOVAs {
				d.IOMMU().Translate(v)
				if i%8 == 7 { // an ACK per 8 received pages
					m, _, err := d.MapTx(0, 1)
					if err != nil {
						t.Fatal(err)
					}
					d.IOMMU().Translate(m.IOVAs[0])
					if _, err := d.UnmapTx(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := d.UnmapRxDescriptor(desc); err != nil {
				t.Fatal(err)
			}
		}
		c := d.IOMMU().Counters()
		return float64(c.MemReads) / float64(c.Walks)
	}
	fns := run(FNS)
	strict := run(Strict)
	if fns > 1.15 {
		t.Fatalf("FNS reads per walk = %.2f, want ~1", fns)
	}
	if strict < 1.25 {
		t.Fatalf("strict reads per walk = %.2f, want inflated by Tx interference", strict)
	}
	if strict <= fns {
		t.Fatalf("strict (%.2f) should cost more reads per walk than FNS (%.2f)", strict, fns)
	}
}

func TestStrictPreserveOnlyFixesInvalidationsNotLocality(t *testing.T) {
	// Ablation A: PTcaches survive invalidations, so with a single ring
	// the walk cost drops — the §4.3 point is that under *contention*
	// (many scattered IOVAs) locality still hurts; here we just verify
	// the preserve behaviour is active.
	d := newDomain(t, StrictPreserve)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.IOVAs {
		d.IOMMU().Translate(v)
	}
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	if got := d.IOMMU().Counters().PTInvalidated; got != 0 {
		t.Fatalf("PTInvalidated = %d, want 0 under preserve", got)
	}
}

func TestPersistentModeRecyclesDescriptors(t *testing.T) {
	d := newDomain(t, Persistent)
	desc1, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	base1 := desc1.IOVAs[0]
	if _, err := d.UnmapRxDescriptor(desc1); err != nil {
		t.Fatal(err)
	}
	desc2, cost, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if desc2.IOVAs[0] != base1 {
		t.Fatal("persistent mode did not recycle the descriptor")
	}
	if cost != 0 {
		t.Fatalf("recycled descriptor cost = %v, want 0", cost)
	}
	// Mappings stay alive: the device retains access (weaker safety).
	if !d.IOMMU().Table().Mapped(base1) {
		t.Fatal("persistent mapping was dropped")
	}
}

func TestTxStrictPerPacket(t *testing.T) {
	d := newDomain(t, Strict)
	m, _, err := d.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := m.IOVAs[0] // the record is dead once unmapped
	d.IOMMU().Translate(v)
	if _, err := d.UnmapTx(m); err != nil {
		t.Fatal(err)
	}
	if tr := d.IOMMU().Translate(v); tr.OK() {
		t.Fatal("Tx buffer reachable after completion")
	}
	if d.Counters().TxPacketsUnmapped != 1 {
		t.Fatal("Tx counters wrong")
	}
}

func TestTxFNSChunkFillsAcrossPackets(t *testing.T) {
	d := newDomain(t, FNS)
	var all []ptable.IOVA
	var ms []*TxMapping
	for i := 0; i < 64; i++ {
		m, _, err := d.MapTx(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, m.IOVAs...)
		ms = append(ms, m)
	}
	// The 64 single-page packets must be contiguous (one chunk).
	for i := 1; i < len(all); i++ {
		if all[i] != all[i-1]+ptable.PageSize {
			t.Fatalf("Tx chunk not contiguous at %d", i)
		}
	}
	// Allocator was hit once for the chunk, not 64 times.
	if got := d.Counters().IOVAAllocs; got != 1 {
		t.Fatalf("IOVAAllocs = %d, want 1", got)
	}
	// Unmap all: strict safety per packet, chunk freed at the end.
	for _, m := range ms {
		if _, err := d.UnmapTx(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Counters().IOVAFrees; got != 1 {
		t.Fatalf("IOVAFrees = %d, want 1 (chunk freed once)", got)
	}
	// A 65th packet opens a fresh chunk.
	if _, _, err := d.MapTx(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().IOVAAllocs; got != 2 {
		t.Fatalf("IOVAAllocs = %d, want 2", got)
	}
}

func TestTxFNSSafetyPerPacket(t *testing.T) {
	// Even though the chunk lives on, a completed packet's pages must be
	// unreachable immediately (strict safety at packet granularity).
	d := newDomain(t, FNS)
	m1, _, err := d.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := d.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	v1 := m1.IOVAs[0] // the record is dead once unmapped
	d.IOMMU().Translate(v1)
	d.IOMMU().Translate(m2.IOVAs[0])
	if _, err := d.UnmapTx(m1); err != nil {
		t.Fatal(err)
	}
	if tr := d.IOMMU().Translate(v1); tr.OK() {
		t.Fatal("completed Tx packet still reachable")
	}
	if tr := d.IOMMU().Translate(m2.IOVAs[0]); !tr.OK() {
		t.Fatal("in-flight Tx packet lost its mapping")
	}
}

func TestTxMultiPagePacket(t *testing.T) {
	for _, mode := range []Mode{Strict, FNS, Persistent, Deferred} {
		d := newDomain(t, mode)
		m, _, err := d.MapTx(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.IOVAs) != 3 {
			t.Fatalf("mode %v: pages = %d, want 3", mode, len(m.IOVAs))
		}
		if _, err := d.UnmapTx(m); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestTxPersistentPoolRecycles(t *testing.T) {
	d := newDomain(t, Persistent)
	m1, _, _ := d.MapTx(0, 1)
	v := m1.IOVAs[0]
	if _, err := d.UnmapTx(m1); err != nil {
		t.Fatal(err)
	}
	m2, cost, _ := d.MapTx(0, 1)
	if m2.IOVAs[0] != v {
		t.Fatal("persistent Tx pool did not recycle")
	}
	if cost != 0 {
		t.Fatal("recycled Tx page cost CPU time")
	}
}

func TestTraceRecordsL3Keys(t *testing.T) {
	d := mustDomain(t, Config{Mode: FNS, NumCPUs: 1, DescriptorPages: 64, TraceL3: true})
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = desc
	if d.Trace() == nil || len(d.Trace().Dists) != 64 {
		t.Fatalf("trace length = %d, want 64", len(d.Trace().Dists))
	}
	// Contiguous chunk: after the first key, nearly all accesses are
	// repeats at distance 0.
	zero := 0
	for _, dist := range d.Trace().Dists {
		if dist == 0 {
			zero++
		}
	}
	if zero < 60 {
		t.Fatalf("only %d zero-distance accesses in a contiguous chunk", zero)
	}
}

func TestDescriptorPagesDefault(t *testing.T) {
	d := mustDomain(t, Config{Mode: Strict})
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.IOVAs) != 64 {
		t.Fatalf("default descriptor pages = %d, want 64", len(desc.IOVAs))
	}
}

func TestCountersAccumulate(t *testing.T) {
	d := newDomain(t, Strict)
	desc, _, _ := d.MapRxDescriptor(0)
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	c := d.Counters()
	if c.RxDescriptorsMapped != 1 || c.RxDescriptorsUnmapped != 1 {
		t.Fatalf("descriptor counters: %+v", c)
	}
	if c.PagesMapped != 64 || c.PagesUnmapped != 64 {
		t.Fatalf("page counters: %+v", c)
	}
	if c.CPUTime <= 0 {
		t.Fatal("CPUTime not charged")
	}
}

func TestSharedIOMMUDomains(t *testing.T) {
	// Two driver domains over one IOMMU: separate IOVA spaces and page
	// tables, shared caches, independent safety.
	nicDom := mustDomain(t, Config{Mode: FNS, NumCPUs: 1})
	stDom := mustDomain(t, Config{Mode: FNS, NumCPUs: 1, SharedIOMMU: nicDom.IOMMU()})
	if nicDom.IOMMU() != stDom.IOMMU() {
		t.Fatal("domains do not share the IOMMU")
	}
	if nicDom.ID() == stDom.ID() {
		t.Fatal("domains share an id")
	}
	d1, _, err := nicDom.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := stDom.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	// Same top-down allocator start: the IOVAs collide numerically but
	// resolve independently.
	if d1.IOVAs[0] != d2.IOVAs[0] {
		t.Fatalf("expected identical IOVA bases, got %v vs %v", d1.IOVAs[0], d2.IOVAs[0])
	}
	t1 := nicDom.Translate(d1.IOVAs[0])
	t2 := stDom.Translate(d2.IOVAs[0])
	if !t1.OK() || !t2.OK() || t1.Phys == t2.Phys {
		t.Fatalf("cross-domain resolution broken: %+v vs %+v", t1, t2)
	}
	// Unmapping one domain's descriptor leaves the other's intact.
	if _, err := nicDom.UnmapRxDescriptor(d1); err != nil {
		t.Fatal(err)
	}
	if tr := nicDom.Translate(d1.IOVAs[0]); tr.OK() {
		t.Fatal("nic domain retained access after unmap")
	}
	if tr := stDom.Translate(d2.IOVAs[0]); !tr.OK() {
		t.Fatal("storage domain lost access to its own descriptor")
	}
	if c := nicDom.IOMMU().Counters(); c.StaleIOTLBUses != 0 || c.StalePTUses != 0 {
		t.Fatalf("stale uses across domains: %+v", c)
	}
}
