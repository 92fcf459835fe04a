package iommu

import (
	"reflect"
	"testing"
	"unsafe"

	"fastsafe/internal/ptable"
)

// TestTranslationFitsRegisters: gc keeps a struct in registers (an SSA
// value) only if it has at most 4 fields and is at most 4 words
// (ssa.CanSSA). A Translation past either bound is spilled to memory on
// every return along the seam: IOMMU, ATC, domain, NIC.
func TestTranslationFitsRegisters(t *testing.T) {
	typ := reflect.TypeOf(Translation{})
	if n := typ.NumField(); n > 4 {
		t.Errorf("Translation has %d fields, gc keeps at most 4 in registers", n)
	}
	if words := typ.Size() / unsafe.Sizeof(uintptr(0)); words > 4 {
		t.Errorf("Translation is %d words, gc keeps at most 4 in registers", words)
	}
}

// TestTranslationWord: each part of the packed word reads back as it
// was set, and reads added later leave the rest alone.
func TestTranslationWord(t *testing.T) {
	for by := ByIOTLB; by <= ByCap; by++ {
		for _, stale := range []bool{false, true} {
			tr := Hit(0x1234000, by, stale).WithReads(3).WithReads(5)
			if tr.Phys != 0x1234000 || !tr.OK() || tr.Stale() != stale || tr.Served() != by || tr.MemReads() != 8 {
				t.Errorf("Hit(%v, stale %v) with 8 reads = %v", by, stale, tr)
			}
		}
		if tr := faulted(by, 4); tr.OK() || tr.Stale() || tr.Served() != by || tr.MemReads() != 4 {
			t.Errorf("faulted(%v, 4) = %v", by, tr)
		}
	}
	var zero Translation
	if zero.OK() || zero.Stale() || zero.MemReads() != 0 || zero.Served() != 0 || zero.Served().IOTLB() || zero.Served().Walk() {
		t.Errorf("zero Translation = %v", zero)
	}
}

// twinDomains builds two IOMMUs, each with one domain set up by setup,
// and logs every audited translation of each.
type twinDomains struct {
	m    [2]*IOMMU
	d    [2]DomainID
	logs [2][]auditCall
}

type auditCall struct {
	v ptable.IOVA
	t Translation
}

func newTwinDomains(setup func(m *IOMMU, d DomainID)) *twinDomains {
	tw := &twinDomains{}
	for i := range tw.m {
		m := New(Config{})
		d := m.CreateDomain()
		setup(m, d)
		log := &tw.logs[i]
		m.SetAuditHook(func(_ DomainID, v ptable.IOVA, tr Translation) { *log = append(*log, auditCall{v, tr}) })
		tw.m[i], tw.d[i] = m, d
	}
	return tw
}

// run translates n transactions stride bytes apart from v on: twin 0
// through the direct TranslateRun, twin 1 with one TranslateIn each. It
// fails t unless both return the same reads, counters and audit calls.
func (tw *twinDomains) run(t *testing.T, what string, v ptable.IOVA, n, stride int) {
	t.Helper()
	logged := len(tw.logs[0])
	got := tw.m[0].TranslatorOf(tw.d[0]).TranslateRun(v, n, stride)
	want := 0
	for i := 0; i < n; i++ {
		want += tw.m[1].TranslateIn(tw.d[1], v+ptable.IOVA(i*stride)).MemReads()
	}
	if got != want {
		t.Fatalf("%s: run read %d, %d TranslateIns read %d", what, got, n, want)
	}
	if c0, c1 := tw.m[0].Counters(), tw.m[1].Counters(); c0 != c1 {
		t.Fatalf("%s: run counters %+v, TranslateIns %+v", what, c0, c1)
	}
	if !reflect.DeepEqual(tw.logs[0], tw.logs[1]) {
		t.Fatalf("%s: run audited %v, TranslateIns %v", what, tw.logs[0][logged:], tw.logs[1][logged:])
	}
	if len(tw.logs[0])-logged != n {
		t.Fatalf("%s: %d audit calls for %d transactions", what, len(tw.logs[0])-logged, n)
	}
}

// TestCapRunMatchesTranslateIn: on a capability domain a run is n grant
// checks — granted, denied, and revoked or re-granted between runs —
// with the counters and audit calls of n TranslateIn calls.
func TestCapRunMatchesTranslateIn(t *testing.T) {
	const page = ptable.IOVA(0x40_0000)
	tw := newTwinDomains(func(m *IOMMU, d DomainID) {
		ct := m.AttachCapTable(d)
		ct.Grant(page, 0x7000)
		ct.Grant(page+ptable.PageSize, 0x8000)
	})
	tw.run(t, "granted", page+0x80, 8, 512)
	tw.run(t, "granted, one transaction", page+ptable.PageSize, 1, 512)
	tw.run(t, "denied", page+2*ptable.PageSize, 6, 512)
	for _, m := range tw.m {
		m.CapTableOf(tw.d[0]).Revoke(page)
	}
	tw.run(t, "revoked", page, 8, 512)
	tw.run(t, "still granted", page+ptable.PageSize+0x200, 7, 512)
	for _, m := range tw.m {
		m.CapTableOf(tw.d[0]).Grant(page, 0x9000)
		m.CapTableOf(tw.d[0]).Grant(page+ptable.PageSize, 0xa000)
	}
	tw.run(t, "granted again", page, 8, 512)
	tw.run(t, "re-granted", page+ptable.PageSize, 4, 1024)
	c := tw.m[0].Counters()
	if c.CapChecks != 8+1+6+8+7+8+4 || c.CapDenied != 6+8 || c.IOTLBHits != 0 || c.MemReads != 0 {
		t.Fatalf("counters %+v: want every transaction a grant check", c)
	}
}

// TestDirectRunMatchesTranslateIn: on a walked domain a run whose first
// transaction hits, walks, lands on a 2MB entry, is stale or faults
// matches n TranslateIn calls.
func TestDirectRunMatchesTranslateIn(t *testing.T) {
	const huge = ptable.IOVA(ptable.HugeSize)
	tw := newTwinDomains(func(m *IOMMU, d DomainID) {
		tb := m.TableOf(d)
		for i := 0; i < 4; i++ {
			if err := tb.Map(ptable.IOVA(i*ptable.PageSize), ptable.Phys(i+1)<<ptable.PageShift); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.MapHuge(huge, 1<<30); err != nil {
			t.Fatal(err)
		}
	})
	tw.run(t, "walk", 0x100, 8, 480)
	tw.run(t, "hit", 0, 8, 512)
	tw.run(t, "2MB walk", huge+5*ptable.PageSize+0x10, 8, 500)
	tw.run(t, "2MB hit", huge+7*ptable.PageSize, 8, 512)
	tw.run(t, "fault", 9*ptable.PageSize, 5, 512)
	for i, m := range tw.m {
		if _, err := m.TableOf(tw.d[i]).Unmap(0, ptable.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := m.TableOf(tw.d[i]).UnmapHuge(huge); err != nil {
			t.Fatal(err)
		}
	}
	tw.run(t, "stale 4KB hit", 0x40, 8, 512)
	tw.run(t, "stale 2MB hit", huge+5*ptable.PageSize+0x20, 8, 512)
	c := tw.m[0].Counters()
	if c.StaleIOTLBUses != 16 || c.Faults != 5 || c.Walks != 2+5 {
		t.Fatalf("counters %+v: want 16 stale uses, 5 faults, 7 walks", c)
	}
}
