package core

import (
	"testing"

	"fastsafe/internal/ats"
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
)

// TestCapMapGrantsUnmapRevokes exercises the eager capability datapath
// end to end: map grants one capability per page and every DMA validates
// in O(1) with zero page-table reads; unmap revokes synchronously, so
// the very next access is denied — with no invalidation-queue traffic at
// any point.
func TestCapMapGrantsUnmapRevokes(t *testing.T) {
	d := newDomain(t, Cap)
	desc, cost, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("cap map should cost CPU time (grants are not free)")
	}
	ct := d.caps
	if ct == nil {
		t.Fatal("cap domain has no capability table")
	}
	if ct.Len() != 64 {
		t.Fatalf("grants = %d, want 64", ct.Len())
	}
	for _, v := range desc.IOVAs {
		tr := d.Translate(v)
		if !tr.OK() || tr.Served() != iommu.ByCap {
			t.Fatalf("granted page %v: %+v", v, tr)
		}
	}
	c := d.mmu.Counters()
	if c.CapChecks != 64 {
		t.Fatalf("CapChecks = %d, want 64", c.CapChecks)
	}
	if c.MemReads != 0 {
		t.Fatalf("capability checks read memory: %d reads", c.MemReads)
	}
	ucost, err := d.UnmapRxDescriptor(desc)
	if err != nil {
		t.Fatal(err)
	}
	if ucost <= 0 {
		t.Fatal("eager revocation should cost CPU time")
	}
	if ct.Len() != 0 {
		t.Fatalf("grants after unmap = %d, want 0", ct.Len())
	}
	if tr := d.Translate(desc.IOVAs[0]); tr.OK() {
		t.Fatalf("revoked page still translates: %+v", tr)
	}
	c = d.mmu.Counters()
	if c.CapDenied == 0 {
		t.Fatal("denied access not counted")
	}
	if c.CapRevocations != 64 {
		t.Fatalf("CapRevocations = %d, want 64", c.CapRevocations)
	}
	if c.InvRequests != 0 || c.ATCInvRequests != 0 {
		t.Fatalf("capability datapath used the invalidation queue: %+v", c)
	}
	dc := d.Counters()
	if dc.RxDescriptorsMapped != 1 || dc.RxDescriptorsUnmapped != 1 {
		t.Fatalf("descriptor counters: %+v", dc)
	}
}

// TestCapRemapRegrantsWithoutShootdown: window recycling under cap is a
// grant overwrite — physical pages rotate under fixed IOVAs with zero
// invalidation-queue or ATC-shootdown traffic, and every overwrite
// counts as a revocation of the prior grant.
func TestCapRemapRegrantsWithoutShootdown(t *testing.T) {
	d := newDomain(t, Cap)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]ptable.Phys, len(desc.IOVAs))
	for i, v := range desc.IOVAs {
		before[i] = d.Translate(v).Phys
	}
	cost, err := d.RemapRxDescriptor(desc)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("remap should cost CPU time")
	}
	for i, v := range desc.IOVAs {
		tr := d.Translate(v)
		if !tr.OK() {
			t.Fatalf("post-remap translate failed at %v", v)
		}
		if tr.Phys == before[i] {
			t.Fatalf("page %d not rotated", i)
		}
	}
	c := d.mmu.Counters()
	if c.InvRequests != 0 || c.ATCInvRequests != 0 {
		t.Fatalf("cap remap issued shootdowns: %+v", c)
	}
	if c.CapRevocations != 64 {
		t.Fatalf("re-grant overwrites counted %d revocations, want 64", c.CapRevocations)
	}
}

// TestCapLazyRevokeWindowAndFlush drives the stale-capability window the
// auditor exists to catch: after a lazy unmap the grants still serve,
// until the forced flush sweeps the batch and the next access is denied.
// IOVA frees ride the same batch, so the flush is also what returns the
// addresses to the allocator.
func TestCapLazyRevokeWindowAndFlush(t *testing.T) {
	d := newDomain(t, CapLazyRevoke)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	if d.PendingDeferred() == 0 {
		t.Fatal("lazy unmap queued nothing")
	}
	// The unsafe window: the grant outlives the mapping.
	if tr := d.Translate(desc.IOVAs[0]); !tr.OK() || tr.Served() != iommu.ByCap {
		t.Fatalf("stale window closed early: %+v", tr)
	}
	if cost := d.FlushDeferred(); cost <= 0 {
		t.Fatalf("forced revocation flush should cost CPU time")
	}
	if d.PendingDeferred() != 0 {
		t.Fatal("flush left pending revocations")
	}
	if d.caps.Len() != 0 {
		t.Fatalf("grants after flush = %d, want 0", d.caps.Len())
	}
	if tr := d.Translate(desc.IOVAs[0]); tr.OK() {
		t.Fatalf("revoked grant still serves: %+v", tr)
	}
	if d.Counters().DeferredFlushes != 1 {
		t.Fatalf("DeferredFlushes = %d, want 1", d.Counters().DeferredFlushes)
	}
	if d.FlushDeferred() != 0 {
		t.Fatal("empty flush should be free")
	}
}

// TestCapLazyRemapDefersRegrant: a lazy remap re-points the shadow table
// immediately but batches the grant overwrite, so the device keeps
// reaching the old physical page until the flush installs the re-grant —
// the capability analogue of skipping the ATC shootdown.
func TestCapLazyRemapDefersRegrant(t *testing.T) {
	d := newDomain(t, CapLazyRevoke)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	v := desc.IOVAs[0]
	old := d.Translate(v).Phys
	if _, err := d.RemapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	if d.PendingDeferred() == 0 {
		t.Fatal("lazy remap deferred nothing")
	}
	if tr := d.Translate(v); tr.Phys != old {
		t.Fatalf("stale grant already re-pointed: %+v", tr)
	}
	if d.FlushDeferred() <= 0 {
		t.Fatal("re-grant flush should cost CPU time")
	}
	tr := d.Translate(v)
	if !tr.OK() || tr.Phys == old {
		t.Fatalf("flush did not install the re-grant: %+v", tr)
	}
}

// TestCapTxPath covers the chunked Tx datapath for both variants: grants
// per packet page, eager revocation (or a batched one) on completion.
func TestCapTxPath(t *testing.T) {
	for _, mode := range []Mode{Cap, CapLazyRevoke} {
		d := newDomain(t, mode)
		m, cost, err := d.MapTx(0, 3)
		if err != nil {
			t.Fatalf("%v: MapTx: %v", mode, err)
		}
		if cost <= 0 || len(m.IOVAs) != 3 {
			t.Fatalf("%v: MapTx cost %v, iovas %v", mode, cost, m.IOVAs)
		}
		for _, v := range m.IOVAs {
			if tr := d.Translate(v); !tr.OK() || tr.Served() != iommu.ByCap {
				t.Fatalf("%v: Tx page %v: %+v", mode, v, tr)
			}
		}
		v := m.IOVAs[0] // the record is dead once unmapped
		if _, err := d.UnmapTx(m); err != nil {
			t.Fatalf("%v: UnmapTx: %v", mode, err)
		}
		if mode == Cap {
			if tr := d.Translate(v); tr.OK() {
				t.Fatalf("eager Tx revoke left a live grant: %+v", tr)
			}
		} else {
			if tr := d.Translate(v); !tr.OK() {
				t.Fatalf("lazy Tx revoke closed the window early: %+v", tr)
			}
			d.FlushDeferred()
			if tr := d.Translate(v); tr.OK() {
				t.Fatalf("flushed Tx grant still serves: %+v", tr)
			}
		}
		if c := d.mmu.Counters(); c.InvRequests != 0 {
			t.Fatalf("%v: Tx path used the invalidation queue", mode)
		}
	}
}

// TestCapDomainsNeverAttachATC: a device-side translation cache would
// hold translations no capability revoke can reach, so the family
// refuses one even when the config asks — the IOMMU-resident table is
// the only translation source.
func TestCapDomainsNeverAttachATC(t *testing.T) {
	for _, mode := range []Mode{Cap, CapLazyRevoke} {
		d := mustDomain(t, Config{
			Mode: mode, NumCPUs: 1, DescriptorPages: 8,
			ATS: ats.Config{Entries: 64},
		})
		if d.ATC() != nil {
			t.Fatalf("%v: capability domain attached an ATC", mode)
		}
		if d.caps == nil {
			t.Fatalf("%v: capability domain missing its table", mode)
		}
	}
}

// TestCapPersistentPagesGranted: ring and window registrations map
// through MapPersistentPages; on a capability domain they must come with
// grants or the device could never DMA descriptors at all.
func TestCapPersistentPagesGranted(t *testing.T) {
	d := newDomain(t, Cap)
	iovas, err := d.MapPersistentPages(0, 4)
	if err != nil || len(iovas) != 4 {
		t.Fatalf("MapPersistentPages = %v, %v", iovas, err)
	}
	for _, v := range iovas {
		// Only a live grant passes the capability check.
		if tr := d.Translate(v); !tr.OK() || tr.Served() != iommu.ByCap {
			t.Fatalf("persistent page %v: %+v", v, tr)
		}
	}
}
