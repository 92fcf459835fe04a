package core

import (
	"testing"

	"fastsafe/internal/ptable"
)

func TestHugeDescriptorsCarvedFromOneChunk(t *testing.T) {
	d := newDomain(t, FNSHuge)
	var descs []*Descriptor
	for i := 0; i < 8; i++ { // 8 x 64 pages = one 2MB chunk
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		descs = append(descs, desc)
	}
	// One IOVA allocation, one huge mapping for all eight descriptors.
	if got := d.Counters().IOVAAllocs; got != 1 {
		t.Fatalf("IOVAAllocs = %d, want 1", got)
	}
	// Contiguity across the whole chunk.
	for i := 1; i < 8; i++ {
		if descs[i].IOVAs[0] != descs[i-1].IOVAs[63]+ptable.PageSize {
			t.Fatalf("descriptor %d not adjacent to previous", i)
		}
	}
	// The ninth descriptor opens a new chunk.
	if _, _, err := d.MapRxDescriptor(0); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().IOVAAllocs; got != 2 {
		t.Fatalf("IOVAAllocs = %d, want 2", got)
	}
}

func TestHugeSingleIOTLBMissPerChunk(t *testing.T) {
	d := newDomain(t, FNSHuge)
	desc, _, err := d.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.IOVAs {
		d.mmu.TranslateIn(0, v)
	}
	if c := d.mmu.Counters(); c.IOTLBMisses != 1 {
		t.Fatalf("IOTLBMisses = %d, want 1 for 64 pages under a hugepage", c.IOTLBMisses)
	}
}

func TestHugeRevocationAtChunkGranularity(t *testing.T) {
	d := newDomain(t, FNSHuge)
	var descs []*Descriptor
	for i := 0; i < 8; i++ {
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		descs = append(descs, desc)
	}
	// Completing seven of eight descriptors must NOT revoke access (the
	// 2MB mapping is still live) — this is the documented safety
	// relaxation versus strict.
	for i := 0; i < 7; i++ {
		if _, err := d.UnmapRxDescriptor(descs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tr := d.mmu.TranslateIn(0, descs[0].IOVAs[0]); !tr.OK() {
		t.Fatal("chunk revoked before all descriptors completed")
	}
	// Completing the last one revokes the whole chunk with one request.
	before := d.mmu.Counters().InvRequests
	if _, err := d.UnmapRxDescriptor(descs[7]); err != nil {
		t.Fatal(err)
	}
	if got := d.mmu.Counters().InvRequests - before; got != 1 {
		t.Fatalf("invalidation requests for chunk = %d, want 1", got)
	}
	for _, desc := range descs {
		if tr := d.mmu.TranslateIn(0, desc.IOVAs[0]); tr.OK() {
			t.Fatal("access survived chunk completion")
		}
	}
	if c := d.mmu.Counters(); c.StaleIOTLBUses != 0 || c.StalePTUses != 0 {
		t.Fatalf("stale uses: %+v", c)
	}
}

func TestHugeChunkIOVAFreedOnceComplete(t *testing.T) {
	d := newDomain(t, FNSHuge)
	var descs []*Descriptor
	for i := 0; i < 8; i++ {
		desc, _, err := d.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		descs = append(descs, desc)
	}
	for _, desc := range descs {
		if _, err := d.UnmapRxDescriptor(desc); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Counters().IOVAFrees; got != 1 {
		t.Fatalf("IOVAFrees = %d, want 1 (whole chunk at once)", got)
	}
	// A fresh chunk can be carved again.
	if _, _, err := d.MapRxDescriptor(0); err != nil {
		t.Fatal(err)
	}
}

func TestHugeTxUsesFNSPath(t *testing.T) {
	d := newDomain(t, FNSHuge)
	m1, _, err := d.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := d.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.IOVAs[0] != m1.IOVAs[0]+ptable.PageSize {
		t.Fatal("Tx chunking not active under fns+huge")
	}
	v1 := m1.IOVAs[0] // the record is dead once unmapped
	d.mmu.TranslateIn(0, v1)
	if _, err := d.UnmapTx(m1); err != nil {
		t.Fatal(err)
	}
	if tr := d.mmu.TranslateIn(0, v1); tr.OK() {
		t.Fatal("Tx packet reachable after completion")
	}
}

func TestHugeModePredicates(t *testing.T) {
	if FNSHuge.StrictSafety() {
		t.Fatal("fns+huge must not claim strict safety (2MB revocation granularity)")
	}
	if !FNSHuge.Contiguous() || !FNSHuge.PreservesPTCaches() || !FNSHuge.Translated() {
		t.Fatal("fns+huge predicates wrong")
	}
	m, err := ParseMode("fns+huge")
	if err != nil || m != FNSHuge {
		t.Fatalf("ParseMode = %v, %v", m, err)
	}
}
