package core

import (
	"testing"

	"fastsafe/internal/ats"
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/stats"
)

func newATSDomain(t *testing.T, mode Mode, entries int) *Domain {
	t.Helper()
	return mustDomain(t, Config{
		Mode: mode, NumCPUs: 2, DescriptorPages: 8,
		ATS: ats.Config{Entries: entries},
	})
}

// RemapRxDescriptor must preserve the IOVA layout — one-sided peers
// address the window by fixed offsets — while re-pointing every page at
// fresh physical memory.
func TestRemapPreservesIOVAsRotatesPhys(t *testing.T) {
	for _, mode := range []Mode{Strict, StrictPreserve, StrictContig, FNS, Deferred} {
		d := newDomain(t, mode)
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatalf("%v: MapRxDescriptor: %v", mode, err)
		}
		before := make([]ptable.Phys, len(desc.IOVAs))
		for i, v := range desc.IOVAs {
			tr := d.Translate(v)
			if !tr.OK() {
				t.Fatalf("%v: pre-remap translate failed", mode)
			}
			before[i] = tr.Phys
		}
		cost, err := d.RemapRxDescriptor(desc)
		if err != nil {
			t.Fatalf("%v: RemapRxDescriptor: %v", mode, err)
		}
		if cost <= 0 {
			t.Fatalf("%v: remap cost = %v, want > 0", mode, cost)
		}
		for i, v := range desc.IOVAs {
			tr := d.Translate(v)
			if !tr.OK() {
				t.Fatalf("%v: post-remap translate failed", mode)
			}
			if tr.Stale() {
				t.Fatalf("%v: post-remap translation served stale", mode)
			}
			if tr.Phys == before[i] {
				t.Fatalf("%v: page %d not rotated", mode, i)
			}
		}
	}
}

// Off, Persistent and FNSHuge treat a registered window as persistent:
// remap is a free no-op and the physical pages stay put.
func TestRemapNoOpModes(t *testing.T) {
	for _, mode := range []Mode{Off, Persistent, FNSHuge} {
		d := newDomain(t, mode)
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatalf("%v: MapRxDescriptor: %v", mode, err)
		}
		cost, err := d.RemapRxDescriptor(desc)
		if err != nil {
			t.Fatalf("%v: RemapRxDescriptor: %v", mode, err)
		}
		if cost != 0 {
			t.Fatalf("%v: no-op remap cost = %v", mode, cost)
		}
	}
}

// With a device TLB attached, the safe modes' remap must shoot the ATC
// down (the host-initiated ATC-invalidate message class) before the
// IOVAs point at new memory; subsequent device translations are fresh.
func TestRemapShootsDownATC(t *testing.T) {
	for _, mode := range []Mode{Strict, FNS} {
		d := newATSDomain(t, mode, 64)
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatalf("%v: MapRxDescriptor: %v", mode, err)
		}
		for _, v := range desc.IOVAs { // warm the device TLB
			d.Translate(v)
		}
		if got := d.ATC().Counters().Hits; got != 0 {
			// First touches are misses; re-touch to confirm hits.
			t.Fatalf("%v: unexpected warm hits %d", mode, got)
		}
		for _, v := range desc.IOVAs {
			if tr := d.Translate(v); tr.Served() != iommu.ByATC {
				t.Fatalf("%v: warm lookup of %v missed the ATC", mode, v)
			}
		}
		if _, err := d.RemapRxDescriptor(desc); err != nil {
			t.Fatalf("%v: RemapRxDescriptor: %v", mode, err)
		}
		ac := d.ATC().Counters()
		if ac.InvMessages == 0 || ac.Invalidated == 0 {
			t.Fatalf("%v: remap sent no ATC invalidations: %+v", mode, ac)
		}
		mc := d.mmu.Counters()
		if mc.ATCInvRequests == 0 {
			t.Fatalf("%v: ATC-invalidate requests not charged to the IOMMU", mode)
		}
		for _, v := range desc.IOVAs {
			tr := d.Translate(v)
			if tr.Stale() {
				t.Fatalf("%v: post-remap device translation stale", mode)
			}
		}
		if d.ATC().Counters().StaleHits != 0 {
			t.Fatalf("%v: device cache recorded stale hits", mode)
		}
	}
}

// The defer-noshootdown strawman re-points the window without telling
// the device cache: every warm entry keeps serving the old physical
// page, and the ATC's own stale counter catches it.
func TestRemapStrawmanLeavesATCStale(t *testing.T) {
	d := newATSDomain(t, DeferNoShootdown, 64)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatalf("MapRxDescriptor: %v", err)
	}
	for _, v := range desc.IOVAs {
		d.Translate(v)
	}
	if _, err := d.RemapRxDescriptor(desc); err != nil {
		t.Fatalf("RemapRxDescriptor: %v", err)
	}
	var stale int
	for _, v := range desc.IOVAs {
		tr := d.Translate(v)
		if tr.Served() == iommu.ByATC && tr.Stale() {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("strawman remap left no stale ATC service")
	}
	ac := d.ATC().Counters()
	if ac.StaleHits == 0 {
		t.Fatalf("ATC stale counter missed the violations: %+v", ac)
	}
	if ac.InvMessages != 0 {
		t.Fatalf("strawman sent %d ATC invalidations, want 0", ac.InvMessages)
	}
}

func TestDomainAccessors(t *testing.T) {
	d := newATSDomain(t, FNS, 32)
	if d.Mode() != FNS {
		t.Fatalf("Mode() = %v", d.Mode())
	}
	if d.DescriptorPages() != 8 {
		t.Fatalf("DescriptorPages() = %d", d.DescriptorPages())
	}
	if d.ATC() == nil {
		t.Fatal("ATC() nil with entries configured")
	}
	if newDomain(t, FNS).ATC() != nil {
		t.Fatal("ATC() non-nil without entries")
	}
	if _, _, err := d.MapRxDescriptor(0); err != nil {
		t.Fatal(err)
	}
	if s := d.AllocatorStats(); s.TreeAllocs+s.CacheAllocs == 0 {
		t.Fatal("AllocatorStats() recorded no allocations")
	}
}

func TestRegisterProbesExposesDomainCounters(t *testing.T) {
	d := newATSDomain(t, FNS, 32)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.IOVAs {
		d.Translate(v)
	}
	if _, err := d.RemapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	r := stats.NewRegistry()
	d.RegisterProbes(r, "dev0.")
	for name, positive := range map[string]bool{
		"dev0.pages_mapped":           true,
		"dev0.inv_requests":           true,
		"dev0.cpu_ns":                 true,
		"dev0.iommu.ats_requests":     true,
		"dev0.iommu.atc_inv_requests": true,
		"dev0.iommu.atc_invalidated":  true,
		"dev0.tx_pkts_mapped":         false,
		"dev0.pending_deferred":       false,
	} {
		v, ok := r.Value(name)
		if !ok {
			t.Fatalf("probe %q not registered", name)
		}
		if positive && v <= 0 {
			t.Fatalf("probe %q = %v, want > 0", name, v)
		}
	}
}

func TestFlushDeferredForcesTimerPath(t *testing.T) {
	d := newDomain(t, Deferred)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.UnmapRxDescriptor(desc); err != nil {
		t.Fatal(err)
	}
	if d.PendingDeferred() == 0 {
		t.Fatal("deferred unmap queued nothing")
	}
	if cost := d.FlushDeferred(); cost <= 0 {
		t.Fatalf("forced flush cost = %v, want > 0", cost)
	}
	if d.PendingDeferred() != 0 {
		t.Fatal("forced flush left pending frees")
	}
	if d.FlushDeferred() != 0 {
		t.Fatal("empty flush should be free")
	}
	if newDomain(t, Strict).FlushDeferred() != 0 {
		t.Fatal("non-deferred flush should be a no-op")
	}
}

func TestMapPersistentPages(t *testing.T) {
	d := newDomain(t, FNS)
	iovas, err := d.MapPersistentPages(0, 4)
	if err != nil || len(iovas) != 4 {
		t.Fatalf("MapPersistentPages = %v, %v", iovas, err)
	}
	for _, v := range iovas {
		if tr := d.Translate(v); !tr.OK() || tr.Stale() {
			t.Fatalf("persistent page %v: %+v", v, tr)
		}
	}
	off := newDomain(t, Off)
	ids, err := off.MapPersistentPages(0, 2)
	if err != nil || len(ids) != 2 {
		t.Fatalf("off-mode MapPersistentPages = %v, %v", ids, err)
	}
}
