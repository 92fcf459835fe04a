package ats

import (
	"testing"

	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/stats"
)

func newCache(t *testing.T, entries int) (*iommu.IOMMU, iommu.DomainID, *Cache) {
	t.Helper()
	m := iommu.New(iommu.Config{})
	d := m.CreateDomain()
	return m, d, New(m, d, m.TranslatorOf(d), Config{Entries: entries})
}

func mustMap(t *testing.T, m *iommu.IOMMU, d iommu.DomainID, v ptable.IOVA, p ptable.Phys) {
	t.Helper()
	if err := m.TableOf(d).Map(v, p); err != nil {
		t.Fatal(err)
	}
}

func TestMissFillsThenHits(t *testing.T) {
	m, d, a := newCache(t, 8)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)

	tr := a.Translate(v + 0x10)
	if !tr.OK() || tr.Served() == iommu.ByATC || tr.Phys != 0x9000 {
		t.Fatalf("miss path: %+v", tr)
	}
	// The ATS request costs one read beyond the walk itself.
	if want := 4 + 1; tr.MemReads() != want {
		t.Fatalf("miss MemReads = %d, want %d", tr.MemReads(), want)
	}
	tr = a.Translate(v + 0x20)
	if !tr.OK() || tr.Served() != iommu.ByATC || tr.Phys != 0x9000 || tr.MemReads() != 0 || tr.Stale() {
		t.Fatalf("hit path: %+v", tr)
	}
	c := a.Counters()
	if c.Lookups != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters: %+v", c)
	}
	// The request landed in both the global and per-domain IOMMU views.
	if g := m.Counters(); g.ATSRequests != 1 {
		t.Fatalf("global ATSRequests = %d", g.ATSRequests)
	}
	if pd := m.CountersOf(d); pd.ATSRequests != 1 {
		t.Fatalf("per-domain ATSRequests = %d", pd.ATSRequests)
	}
}

func TestStaleHitAfterSilentUnmap(t *testing.T) {
	m, d, a := newCache(t, 8)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v)
	// Unmap WITHOUT invalidating the ATC: the defer-noshootdown pattern.
	if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
		t.Fatal(err)
	}
	tr := a.Translate(v)
	if tr.Served() != iommu.ByATC || !tr.Stale() {
		t.Fatalf("unmapped page must be a stale ATC hit: %+v", tr)
	}
	// Remap the IOVA to a new physical page: still stale (re-pointed).
	mustMap(t, m, d, v, 0xa000)
	tr = a.Translate(v)
	if tr.Served() != iommu.ByATC || !tr.Stale() || tr.Phys != 0x9000 {
		t.Fatalf("re-pointed page must be a stale ATC hit serving the old phys: %+v", tr)
	}
	if c := a.Counters(); c.StaleHits != 2 {
		t.Fatalf("StaleHits = %d, want 2", c.StaleHits)
	}
}

func TestInvalidateDropsAndForwards(t *testing.T) {
	m, d, a := newCache(t, 8)
	for i := 0; i < 4; i++ {
		v := ptable.IOVA(i * ptable.PageSize)
		mustMap(t, m, d, v, ptable.Phys(0x100000+i*ptable.PageSize))
		a.Translate(v)
	}
	before := m.CountersOf(d)
	a.Invalidate(0, 2, false)
	if len(a.entries) != 2 {
		t.Fatalf("Len = %d after invalidating 2 of 4", len(a.entries))
	}
	c := a.Counters()
	if c.InvMessages != 1 || c.Invalidated != 2 {
		t.Fatalf("counters: %+v", c)
	}
	pd := m.CountersOf(d)
	if pd.ATCInvRequests-before.ATCInvRequests != 1 || pd.ATCInvalidated-before.ATCInvalidated != 2 {
		t.Fatalf("per-domain ATC inv accounting: %+v -> %+v", before, pd)
	}
	// The request was forwarded to the IOMMU too.
	if pd.InvRequests-before.InvRequests != 1 {
		t.Fatalf("inner invalidation not forwarded")
	}
	// Invalidated entries miss again.
	if tr := a.Translate(0); tr.Served() == iommu.ByATC {
		t.Fatal("entry survived its invalidation")
	}
}

func TestInvalidateAllFlushes(t *testing.T) {
	m, d, a := newCache(t, 8)
	for i := 0; i < 3; i++ {
		v := ptable.IOVA(i * ptable.PageSize)
		mustMap(t, m, d, v, ptable.Phys(0x100000+i*ptable.PageSize))
		a.Translate(v)
	}
	a.InvalidateAll()
	if len(a.entries) != 0 {
		t.Fatalf("Len = %d after flush", len(a.entries))
	}
	if c := a.Counters(); c.Invalidated != 3 {
		t.Fatalf("Invalidated = %d, want 3", c.Invalidated)
	}
	if pd := m.CountersOf(d); pd.ATCInvalidated != 3 {
		t.Fatalf("per-domain ATCInvalidated = %d", pd.ATCInvalidated)
	}
}

func TestLRUEviction(t *testing.T) {
	m, d, a := newCache(t, 2)
	for i := 0; i < 3; i++ {
		v := ptable.IOVA(i * ptable.PageSize)
		mustMap(t, m, d, v, ptable.Phys(0x100000+i*ptable.PageSize))
	}
	a.Translate(0)                            // cache {0}
	a.Translate(ptable.IOVA(ptable.PageSize)) // cache {0, 1}
	a.Translate(0)                            // touch 0: LRU order 0, 1
	a.Translate(ptable.IOVA(2 * ptable.PageSize))
	// Page 1 was least recent and must have been evicted; the
	// recently-touched page 0 must have survived (probe it first — the
	// page-1 probe re-inserts page 1 and evicts again).
	if tr := a.Translate(0); tr.Served() != iommu.ByATC {
		t.Fatal("recently-touched entry evicted")
	}
	if tr := a.Translate(ptable.IOVA(ptable.PageSize)); tr.Served() == iommu.ByATC {
		t.Fatal("LRU victim survived")
	}
	if c := a.Counters(); c.Evictions < 1 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
}

func TestPRIFallbackOnFault(t *testing.T) {
	_, _, a := newCache(t, 8)
	tr := a.Translate(ptable.IOVA(0x7000)) // never mapped
	if tr.OK() || tr.Served() == iommu.ByATC {
		t.Fatalf("unmapped translation: %+v", tr)
	}
	// Walk (4 reads) + ATS request (1) + PRI round trip (5).
	if want := 4 + 1 + 5; tr.MemReads() != want {
		t.Fatalf("PRI MemReads = %d, want %d", tr.MemReads(), want)
	}
	if c := a.Counters(); c.PRIRequests != 1 {
		t.Fatalf("PRIRequests = %d", c.PRIRequests)
	}
	if len(a.entries) != 0 {
		t.Fatal("faulting translation cached")
	}
}

func TestAuditHookFiresOnHitsOnly(t *testing.T) {
	m, d, a := newCache(t, 8)
	var hits int
	a.SetAuditHook(func(v ptable.IOVA, tr iommu.Translation) {
		if tr.Served() != iommu.ByATC {
			t.Errorf("hook fired on a non-ATC translation: %+v", tr)
		}
		hits++
	})
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v) // miss: no hook
	a.Translate(v) // hit
	a.Translate(v) // hit
	if hits != 2 {
		t.Fatalf("hook fired %d times, want 2", hits)
	}
}

func TestRegisterProbes(t *testing.T) {
	m, d, a := newCache(t, 8)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v)
	a.Translate(v)
	r := stats.NewRegistry()
	a.RegisterProbes(r, "nic0.ats.")
	for name, want := range map[string]float64{
		"nic0.ats.lookups":   2,
		"nic0.ats.hits":      1,
		"nic0.ats.misses":    1,
		"nic0.ats.occupancy": 1,
	} {
		got, ok := r.Value(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

func mustMapHuge(t *testing.T, m *iommu.IOMMU, d iommu.DomainID, v ptable.IOVA, p ptable.Phys) {
	t.Helper()
	if err := m.TableOf(d).MapHuge(v, p); err != nil {
		t.Fatal(err)
	}
}

// auditLog installs an audit hook on a that records every hit.
func auditLog(a *Cache) *[]iommu.Translation {
	var log []iommu.Translation
	a.SetAuditHook(func(_ ptable.IOVA, tr iommu.Translation) { log = append(log, tr) })
	return &log
}

func TestHugeHitAddsOffset(t *testing.T) {
	m, d, a := newCache(t, 8)
	base := ptable.IOVA(ptable.HugeSize)
	mustMapHuge(t, m, d, base, 0x4000_0000)
	page := base + 5*ptable.PageSize
	if tr := a.Translate(page + 0x10); tr.Served() == iommu.ByATC || tr.Phys != 0x4000_0000+5*ptable.PageSize+0x10 {
		t.Fatalf("huge miss: %+v", tr)
	}
	tr := a.Translate(page + 0x300)
	if tr.Served() != iommu.ByATC || tr.Stale() || tr.Phys != 0x4000_0000+5*ptable.PageSize+0x300 {
		t.Fatalf("huge hit must add the offset in the page: %+v", tr)
	}
}

func TestHugeHitStaleAfterUnmapHuge(t *testing.T) {
	m, d, a := newCache(t, 8)
	base := ptable.IOVA(ptable.HugeSize)
	mustMapHuge(t, m, d, base, 0x4000_0000)
	v := base + 7*ptable.PageSize + 0x40
	a.Translate(v)
	// Unmap the leaf without a shootdown: every later hit is stale.
	if err := m.TableOf(d).UnmapHuge(base); err != nil {
		t.Fatal(err)
	}
	if tr := a.Translate(v); tr.Served() != iommu.ByATC || !tr.Stale() {
		t.Fatalf("hit after UnmapHuge must be stale: %+v", tr)
	}
	// The same leaf mapped elsewhere: still stale.
	mustMapHuge(t, m, d, base, 0x8000_0000)
	if tr := a.Translate(v); tr.Served() != iommu.ByATC || !tr.Stale() || tr.Phys != 0x4000_0000+7*ptable.PageSize+0x40 {
		t.Fatalf("re-pointed leaf must be a stale hit on the old phys: %+v", tr)
	}
	// Mapped back where it was: the hit is right again.
	if err := m.TableOf(d).UnmapHuge(base); err != nil {
		t.Fatal(err)
	}
	mustMapHuge(t, m, d, base, 0x4000_0000)
	if tr := a.Translate(v); tr.Served() != iommu.ByATC || tr.Stale() {
		t.Fatalf("leaf mapped back must serve fresh hits: %+v", tr)
	}
	if c := a.Counters(); c.StaleHits != 2 {
		t.Fatalf("StaleHits = %d, want 2", c.StaleHits)
	}
}

func TestRunAcrossHugePage(t *testing.T) {
	m, d, a := newCache(t, 8)
	base := ptable.IOVA(ptable.HugeSize)
	mustMapHuge(t, m, d, base, 0x4000_0000)
	log := auditLog(a)
	v := base + 3*ptable.PageSize + 0x200
	reads := a.TranslateRun(v, 6, 512)
	// One ATS request for the page: the walk (3 reads for a cold 2MB
	// leaf) plus the request itself; the other five are hits.
	if reads != 3+1 {
		t.Fatalf("run reads = %d, want 4", reads)
	}
	if c := a.Counters(); c.Lookups != 6 || c.Misses != 1 || c.Hits != 5 || c.StaleHits != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if len(*log) != 5 {
		t.Fatalf("audit saw %d hits, want 5", len(*log))
	}
	for i, tr := range *log {
		want := ptable.Phys(0x4000_0000 + 3*ptable.PageSize + 0x200 + (i+1)*512)
		if tr.Served() != iommu.ByATC || tr.Stale() || tr.Phys != want {
			t.Fatalf("hit %d: %+v, want Phys %#x", i, tr, uint64(want))
		}
	}
}

// TestRunMatchesTranslates checks a run's effects against n Translate
// calls on a twin: on a miss that fills, on a hit, and on a fault.
func TestRunMatchesTranslates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mapped bool
		warm   bool
	}{
		{"miss", true, false},
		{"hit", true, true},
		{"fault", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ma, da, a := newCache(t, 4)
			mb, db, b := newCache(t, 4)
			v := ptable.IOVA(0x5000)
			if tc.mapped {
				mustMap(t, ma, da, v, 0x9000)
				mustMap(t, mb, db, v, 0x9000)
			}
			if tc.warm {
				a.Translate(v)
				b.Translate(v)
			}
			got := a.TranslateRun(v, 8, 512)
			want := 0
			for i := 0; i < 8; i++ {
				want += b.Translate(v + ptable.IOVA(i*512)).MemReads()
			}
			if got != want || a.Counters() != b.Counters() || ma.Counters() != mb.Counters() || len(a.entries) != len(b.entries) {
				t.Fatalf("run: reads %d, ATC %+v, IOMMU %+v\n8 Translates: reads %d, ATC %+v, IOMMU %+v",
					got, a.Counters(), ma.Counters(), want, b.Counters(), mb.Counters())
			}
		})
	}
}

// TestRunStalenessPerOffsetUnderHugeLeaf: a 4KB entry whose region was
// reclaimed and mapped again as a 2MB leaf, with no shootdown, holds a
// dead leaf. The live 2MB leaf maps the page's first byte where the
// entry does and every later byte elsewhere, so a run from offset 0 is
// fresh on its first transaction and stale on the rest.
func TestRunStalenessPerOffsetUnderHugeLeaf(t *testing.T) {
	m, d, a := newCache(t, 8)
	base := ptable.IOVA(ptable.HugeSize)
	tb := m.TableOf(d)
	for i := 0; i < ptable.EntriesPerPage; i++ {
		mustMap(t, m, d, base+ptable.IOVA(i*ptable.PageSize), ptable.Phys(0x4000_0000+i*ptable.PageSize))
	}
	v := base + 2*ptable.PageSize
	a.Translate(v)
	res, err := tb.Unmap(base, ptable.HugeSize)
	if err != nil || len(res.Reclaimed) != 1 {
		t.Fatalf("span unmap: %+v, %v", res, err)
	}
	mustMapHuge(t, m, d, base, 0x4000_0000)
	log := auditLog(a)
	if reads := a.TranslateRun(v, 8, 512); reads != 0 {
		t.Fatalf("run of hits read %d", reads)
	}
	if len(*log) != 8 || (*log)[0].Stale() {
		t.Fatalf("audit log %+v: want 8 hits, the first fresh", *log)
	}
	for i, tr := range (*log)[1:] {
		if !tr.Stale() || tr.Phys != 0x4000_0000+2*ptable.PageSize {
			t.Fatalf("hit %d: %+v, want a stale page-granular hit", i+1, tr)
		}
	}
	if c := a.Counters(); c.StaleHits != 7 {
		t.Fatalf("StaleHits = %d, want 7", c.StaleHits)
	}
}

// TestInvalidatedHeadMisses: the head check must not serve the entry an
// invalidation just removed.
func TestInvalidatedHeadMisses(t *testing.T) {
	m, d, a := newCache(t, 4)
	v := ptable.IOVA(0x5000)
	mustMap(t, m, d, v, 0x9000)
	a.Translate(v)
	a.Invalidate(v, 1, false)
	if tr := a.Translate(v); tr.Served() == iommu.ByATC {
		t.Fatalf("invalidated head entry served a hit: %+v", tr)
	}
	a.InvalidateAll()
	if tr := a.TranslateRun(v, 4, 512); tr == 0 {
		t.Fatal("flushed head entry served a run")
	}
}
