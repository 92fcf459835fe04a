package iommu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fastsafe/internal/ptable"
	"fastsafe/internal/race"
)

func TestCapTableGrantCheckRevoke(t *testing.T) {
	m := New(Config{})
	ct := m.AttachCapTable(0)
	if m.AttachCapTable(0) != ct {
		t.Fatal("re-attach returned a different table")
	}
	if m.doms[0].cap != ct {
		t.Fatal("the domain does not hold the attached table")
	}
	v, p := ptable.IOVA(ptable.PageSize), ptable.Phys(0x200000)
	if ct.Grant(v, p) {
		t.Fatal("fresh grant reported an overwrite")
	}
	if !granted(ct, v) || ct.Len() != 1 {
		t.Fatalf("grant not installed: granted=%v len=%d", granted(ct, v), ct.Len())
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

// granted reports whether v holds a capability in ct.
func granted(ct *CapTable, v ptable.IOVA) bool {
	_, ok := ct.lookup(v)
	return ok
}

func TestCapTableSurvivesCounterReset(t *testing.T) {
	m := New(Config{})
	ct := m.AttachCapTable(0)
	ct.Grant(0, 0x1000)
	m.TranslateIn(0, 0)
	m.doms[0].c = Counters{}
	m.FlushIn(0)
	if got := m.Counters().CapChecks; got != 0 {
		t.Fatalf("CapChecks after reset = %d", got)
	}
	if !granted(ct, 0) {
		t.Fatal("reset or flush cleared the grants — capabilities are driver state, not cache state")
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

// TestCapTableMatchesMapOracle drives one domain's capability table with
// random Grant, Revoke, lookup, Len and TranslateIn calls against a
// plain map, comparing every result and the domain's counters after
// every op. The pages lie in 2MB regions on either side of a 1GB and a
// 512GB boundary and at the top of the IOVA space, a few pages each, so
// regions empty often; each round works in a few regions and then
// empties some, so the freed region pages come back under other keys.
// IOVAs past the 48-bit space alias granted pages in their low bits and
// must never be served.
func TestCapTableMatchesMapOracle(t *testing.T) {
	const region = ptable.IOVA(ptable.L4PageSpan)
	regions := []ptable.IOVA{
		0, region, 2 * region,
		ptable.IOVA(ptable.L3PageSpan) - region, ptable.IOVA(ptable.L3PageSpan),
		ptable.IOVA(ptable.L2PageSpan) - region, ptable.IOVA(ptable.L2PageSpan),
		ptable.IOVA(ptable.AddrSpace) - region,
	}
	slots := []int{0, 1, 63, 64, 200, 511} // page slots within a region
	m := New(Config{})
	d := m.CreateDomain()
	ct := m.AttachCapTable(d)
	model := map[ptable.IOVA]ptable.Phys{}
	var want Counters
	owner := map[*capPage]ptable.IOVA{} // region page -> region it last served
	reused := 0
	rng := rand.New(rand.NewSource(1))
	page := func(active []ptable.IOVA) ptable.IOVA {
		return active[rng.Intn(len(active))] + ptable.IOVA(slots[rng.Intn(len(slots))]*ptable.PageSize)
	}
	for round := 0; round < 60; round++ {
		active := make([]ptable.IOVA, 1+rng.Intn(3))
		for i := range active {
			active[i] = regions[rng.Intn(len(regions))]
		}
		for op := 0; op < 200; op++ {
			v := page(active)
			what := fmt.Sprintf("round %d op %d at %v", round, op, v)
			switch r := rng.Intn(10); {
			case r < 4:
				p := ptable.Phys(rng.Intn(1<<20)) << ptable.PageShift
				_, had := model[v]
				if got := ct.Grant(v, p); got != had {
					t.Fatalf("%s: Grant replaced %v, model %v", what, got, had)
				}
				if had {
					want.CapRevocations++
				}
				model[v] = p
				pg := ct.regions(v)[v.L3Index()]
				base := v &^ (region - 1)
				if prev, ok := owner[pg]; ok && prev != base {
					reused++
				}
				owner[pg] = base
			case r < 6:
				if r == 5 {
					v += ptable.IOVA(ptable.AddrSpace) // out of range: never granted
				}
				_, had := model[v]
				if got := ct.Revoke(v); got != had {
					t.Fatalf("%s: Revoke %v, model %v", what, got, had)
				}
				if had {
					delete(model, v)
					want.CapRevocations++
				}
			case r < 7:
				_, had := model[v]
				if got := granted(ct, v); got != had {
					t.Fatalf("%s: Granted %v, model %v", what, got, had)
				}
			default:
				u := v + ptable.IOVA(rng.Intn(ptable.PageSize))
				if r == 9 {
					u += ptable.IOVA(ptable.AddrSpace) << rng.Intn(16)
				}
				want.Translations++
				want.CapChecks++
				wantTr := faulted(ByCap, 0)
				if p, ok := model[u.AlignDown()]; ok {
					wantTr = Hit(p, ByCap, false)
				} else {
					want.CapDenied++
					want.Faults++
				}
				if got := m.TranslateIn(d, u); got != wantTr {
					t.Fatalf("%s: TranslateIn(%v) = %v, model %v", what, u, got, wantTr)
				}
			}
			if ct.Len() != len(model) {
				t.Fatalf("%s: Len %d, model %d", what, ct.Len(), len(model))
			}
			if got := m.CountersOf(d); got != want {
				t.Fatalf("%s: counters %+v, model %+v", what, got, want)
			}
		}
		// Empty some regions, active or not, page by page.
		for _, base := range regions {
			if rng.Intn(2) == 0 {
				continue
			}
			for _, s := range slots {
				v := base + ptable.IOVA(s*ptable.PageSize)
				if _, had := model[v]; had != ct.Revoke(v) {
					t.Fatalf("round %d: emptying %v: Revoke disagrees with the model (%v)", round, v, had)
				} else if had {
					delete(model, v)
					want.CapRevocations++
				}
			}
		}
		if got := m.CountersOf(d); got != want || ct.Len() != len(model) {
			t.Fatalf("round %d, emptied: counters %+v len %d, model %+v len %d", round, got, ct.Len(), want, len(model))
		}
	}
	if reused == 0 {
		t.Fatal("no region page was reused under another region: the free list went untested")
	}
}

// TestCapTableGrantOutOfRangePanics: a grant past the 48-bit IOVA space
// would alias a page inside it, so it fails loudly instead.
func TestCapTableGrantOutOfRangePanics(t *testing.T) {
	ct := New(Config{}).AttachCapTable(0)
	defer func() {
		if s, _ := recover().(string); !strings.HasPrefix(s, "iommu: capability grant") {
			t.Fatalf("panic %q, want the out-of-range grant named", s)
		}
	}()
	ct.Grant(ptable.IOVA(ptable.AddrSpace), 0x1000)
}

// TestCapTableSteadyStateNoAllocs: once its regions have been seen, a
// 64-page descriptor's grant, checks and revoke allocate nothing, though
// each cycle empties its regions and the next takes them from the free
// list under other keys.
func TestCapTableSteadyStateNoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	m := New(Config{})
	d := m.CreateDomain()
	ct := m.AttachCapTable(d)
	// Four descriptors, each straddling a 2MB boundary, the last a 1GB
	// one too.
	bases := []ptable.IOVA{0x1fe0000, 0x3fe0000, 0x9fe0000, 0x3ffe0000}
	i := 0
	cycle := func() {
		base := bases[i%len(bases)]
		i++
		for p := 0; p < 64; p++ {
			ct.Grant(base+ptable.IOVA(p*ptable.PageSize), ptable.Phys(p+1)<<ptable.PageShift)
		}
		for p := 0; p < 64; p++ {
			if !m.TranslateIn(d, base+ptable.IOVA(p*ptable.PageSize)+0x40).OK() {
				t.Fatalf("granted page %d of %v denied", p, base)
			}
		}
		for p := 0; p < 64; p++ {
			ct.Revoke(base + ptable.IOVA(p*ptable.PageSize))
		}
	}
	for range bases {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("grant, check and revoke of 64 pages: %v allocs, want 0", n)
	}
	if ct.Len() != 0 {
		t.Fatalf("%d grants left after every cycle revoked its own", ct.Len())
	}
}
