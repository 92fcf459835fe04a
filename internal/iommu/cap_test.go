package iommu

import (
	"testing"

	"fastsafe/internal/ptable"
)

func TestCapTableGrantCheckRevoke(t *testing.T) {
	m := New(Config{})
	ct := m.AttachCapTable(0)
	if m.AttachCapTable(0) != ct {
		t.Fatal("re-attach returned a different table")
	}
	if m.CapTableOf(0) != ct {
		t.Fatal("CapTableOf does not resolve the attached table")
	}
	v, p := ptable.IOVA(ptable.PageSize), ptable.Phys(0x200000)
	if ct.Grant(v, p) {
		t.Fatal("fresh grant reported an overwrite")
	}
	if !ct.Granted(v) || ct.Len() != 1 {
		t.Fatalf("grant not installed: granted=%v len=%d", ct.Granted(v), ct.Len())
	}
	tr := m.TranslateIn(0, v)
	if !tr.OK() || tr.Served() != ByCap || tr.Phys != p {
		t.Fatalf("capability check = %+v, want grant for %v", tr, p)
	}
	if tr.MemReads() != 0 {
		t.Fatalf("capability check read memory: %+v", tr)
	}
	// In-page offsets validate against the same page-granular grant and
	// resolve to the page frame, the walk path's convention.
	if tr := m.TranslateIn(0, v+57); !tr.OK() || tr.Phys != p {
		t.Fatalf("offset check = %+v", tr)
	}
	if !ct.Revoke(v) {
		t.Fatal("revoke of a live grant reported no-op")
	}
	if ct.Revoke(v) {
		t.Fatal("double revoke reported a kill")
	}
	if tr := m.TranslateIn(0, v); tr.OK() || tr.Served() != ByCap {
		t.Fatalf("revoked check = %+v, want blocked capability miss", tr)
	}
	c := m.Counters()
	if c.CapChecks != 3 || c.CapDenied != 1 || c.CapRevocations != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Faults != 1 {
		t.Fatalf("denied DMA not counted as a fault: %+v", c)
	}
}

func TestCapGrantOverwriteCountsRevocation(t *testing.T) {
	m := New(Config{})
	ct := m.AttachCapTable(0)
	v := ptable.IOVA(0)
	ct.Grant(v, 0x1000)
	if !ct.Grant(v, 0x2000) {
		t.Fatal("overwrite not reported")
	}
	if got := m.Counters().CapRevocations; got != 1 {
		t.Fatalf("CapRevocations = %d, want 1 (the re-grant killed the old grant)", got)
	}
	if tr := m.TranslateIn(0, v); tr.Phys != 0x2000 {
		t.Fatalf("check served %+v, want the new grant", tr)
	}
}

func TestCapCountersChargePerDomain(t *testing.T) {
	m := New(Config{})
	d1 := m.CreateDomain()
	ct0, ct1 := m.AttachCapTable(0), m.AttachCapTable(d1)
	ct0.Grant(0, 0x1000)
	ct1.Grant(0, 0x2000)
	m.TranslateIn(0, 0)
	m.TranslateIn(d1, 0)
	m.TranslateIn(d1, ptable.IOVA(ptable.PageSize)) // denied: no grant
	ct1.Revoke(0)
	c0, c1 := m.CountersOf(0), m.CountersOf(d1)
	if c0.CapChecks != 1 || c0.CapDenied != 0 || c0.CapRevocations != 0 {
		t.Fatalf("domain 0 counters = %+v", c0)
	}
	if c1.CapChecks != 2 || c1.CapDenied != 1 || c1.CapRevocations != 1 {
		t.Fatalf("domain %d counters = %+v", d1, c1)
	}
	if g := m.Counters(); g.CapChecks != 3 || g.CapDenied != 1 || g.CapRevocations != 1 {
		t.Fatalf("global counters = %+v", g)
	}
}

func TestCapTableSurvivesCounterReset(t *testing.T) {
	m := New(Config{})
	ct := m.AttachCapTable(0)
	ct.Grant(0, 0x1000)
	m.TranslateIn(0, 0)
	m.ResetCounters()
	if got := m.Counters().CapChecks; got != 0 {
		t.Fatalf("CapChecks after reset = %d", got)
	}
	if !ct.Granted(0) {
		t.Fatal("reset cleared the grants — capabilities are driver state, not cache state")
	}
	if tr := m.TranslateIn(0, 0); !tr.OK() {
		t.Fatalf("post-reset check = %+v", tr)
	}
}

// TestCapDomainSkipsWalkPipeline: attaching a capability table must
// short-circuit the whole walk pipeline — no IOTLB fills, no PTcache
// traffic, no memory reads — even when the same IOVA is mapped in the
// domain's page table; a sibling domain without a table still walks.
func TestCapDomainSkipsWalkPipeline(t *testing.T) {
	m := newMapped(t, Config{}, 1)
	d1 := m.CreateDomain()
	ct := m.AttachCapTable(0)
	ct.Grant(0, 0x999000)
	if err := m.TableOf(d1).Map(0, 0x100000); err != nil {
		t.Fatal(err)
	}
	tr := m.TranslateIn(0, 0)
	if !tr.OK() || tr.Served() != ByCap || tr.Phys != 0x999000 {
		t.Fatalf("cap domain translation = %+v, want the grant (not the table mapping)", tr)
	}
	c := m.Counters()
	if c.IOTLBMisses != 0 || c.IOTLBHits != 0 || c.MemReads != 0 {
		t.Fatalf("cap check entered the walk pipeline: %+v", c)
	}
	if tr := m.TranslateIn(d1, 0); !tr.OK() || tr.Served() == ByCap {
		t.Fatalf("walk-domain translation = %+v, want a plain walk", tr)
	}
	if m.Counters().MemReads == 0 {
		t.Fatal("sibling walk domain read no memory")
	}
}
