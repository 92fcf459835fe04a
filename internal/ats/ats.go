// Package ats models a PCIe Address Translation Services device-side
// translation cache (an ATC, "device TLB"): the endpoint asks the IOMMU's
// translation agent for completed translations, caches them by 4KB page,
// and serves later DMAs locally. The host must explicitly shoot the
// cached entries down — an ATC-invalidate is its own invalidation-queue
// message class — and a DMA whose translation misses the ATC and faults
// at the IOMMU falls back to a PRI page request.
//
// Cache implements iommu.Translator by wrapping an inner Translator
// (normally the domain's direct IOMMU path), so a protection domain with
// ATS enabled is the same domain with one more cache level in front of
// it. The safety-relevant consequence is the StaleATS window: after the
// host unmaps an IOVA, a cached ATC entry keeps serving the old physical
// page until the ATC-invalidate lands. Modes that order the shootdown
// before IOVA reuse (strict, F&S) close the window; the
// defer-noshootdown strawman never sends one and is caught by the fault
// auditor's device-cache re-walk.
package ats

import (
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/stats"
)

// Config sizes one device's ATC.
type Config struct {
	// Entries is the device-TLB capacity (4KB translations, true LRU).
	// Zero disables ATS for the domain entirely.
	Entries int
}

// The memory-read-equivalent costs of the ATS round trips, charged on
// top of the walk a request triggers.
const (
	// reqReads is one ATS translation request: the translation-agent
	// completion message.
	reqReads = 1
	// priReads is the PRI page request a faulting translation request
	// falls back to: page-request, IOMMU fault handling, and the
	// group-response round trip.
	priReads = 5
)

// Counters is the ATC's hardware-counter view.
type Counters struct {
	Lookups     int64 // translations requested through the ATC
	Hits        int64 // served from the device TLB
	Misses      int64 // forwarded to the IOMMU as ATS requests
	PRIRequests int64 // misses that faulted and fell back to PRI
	InvMessages int64 // ATC-invalidate messages received from the host
	Invalidated int64 // entries those messages removed
	Evictions   int64 // capacity evictions (LRU)
	StaleHits   int64 // hits whose mapping is gone or re-pointed (unsafe)
}

type entry struct {
	page ptable.IOVA // 4KB-aligned IOVA
	phys ptable.Phys // physical base of the cached 4KB page
	huge bool        // translation came from a 2MB leaf
	// leaf is where the fill's walk ended. While it is live it says what
	// the page maps to now, so a hit needs no walk to tell if it is stale.
	leaf       ptable.Leaf
	prev, next *entry
}

// at returns the address e serves for v, an IOVA in its page. 4KB
// translations are page-granular in this model; 2MB leaves resolve the
// full offset (matching the IOMMU's own convention).
func (e *entry) at(v ptable.IOVA) ptable.Phys {
	if e.huge {
		return e.phys + ptable.Phys(v-e.page)
	}
	return e.phys
}

// Cache is one device's ATC over one protection domain.
type Cache struct {
	mmu   *iommu.IOMMU
	dom   iommu.DomainID
	table *ptable.Table // the domain's, the ground truth for stale hits
	inner iommu.Translator
	cfg   Config

	entries    map[ptable.IOVA]*entry
	head, tail *entry // LRU list, head = most recent
	// free holds removed entries, linked through next; inserts reuse them
	// (and an insert at capacity the evicted one) instead of allocating.
	free *entry
	c    Counters

	// audit, when set, observes every ATC *hit* (misses reach the
	// IOMMU's own audit hook through the translation request). It must
	// not mutate cache or table state.
	audit func(v ptable.IOVA, t iommu.Translation)
}

// New builds an ATC of cfg.Entries translations for domain d, layered in
// front of inner, d's own IOMMU path (m.TranslatorOf(d)): invalidations
// pass through inner, and a miss's translation request goes to
// m.TranslateLeafIn, which translates as inner would and hands over the
// leaf too. cfg.Entries must be positive.
func New(m *iommu.IOMMU, d iommu.DomainID, inner iommu.Translator, cfg Config) *Cache {
	return &Cache{
		mmu:     m,
		dom:     d,
		table:   m.TableOf(d),
		inner:   inner,
		cfg:     cfg,
		entries: make(map[ptable.IOVA]*entry),
	}
}

// SetAuditHook installs fn to observe every ATC hit (nil uninstalls).
func (a *Cache) SetAuditHook(fn func(ptable.IOVA, iommu.Translation)) { a.audit = fn }

// Counters returns a snapshot of the ATC counters.
func (a *Cache) Counters() Counters { return a.c }

// Translate implements iommu.Translator: serve from the device TLB when
// possible, otherwise send an ATS translation request (the inner
// pipeline) and cache the completion. A faulting request costs an extra
// PRI round trip on top.
func (a *Cache) Translate(v ptable.IOVA) iommu.Translation {
	page := v.AlignDown()
	e := a.lookup(page)
	if e == nil {
		return a.miss(v, page)
	}
	return iommu.Hit(e.at(v), iommu.ByATC, a.serve(e, v, 1, 0))
}

// TranslateRun implements iommu.Translator. The first transaction takes
// Translate's path; once it leaves v's entry at the LRU head, the other
// n-1 are head hits, charged at once.
func (a *Cache) TranslateRun(v ptable.IOVA, n, stride int) (reads int) {
	page := v.AlignDown()
	if e := a.lookup(page); e != nil {
		a.serve(e, v, n, stride)
		return 0
	}
	t := a.miss(v, page)
	reads = t.MemReads()
	switch {
	case n == 1:
	case t.OK():
		a.serve(a.head, v+ptable.IOVA(stride), n-1, stride)
	default:
		// A fault cached nothing: each later transaction asks again.
		for i := 1; i < n; i++ {
			reads += a.Translate(v + ptable.IOVA(i*stride)).MemReads()
		}
	}
	return reads
}

// lookup returns page's entry, moved to the LRU head, or nil. It checks
// the head before it probes the map.
func (a *Cache) lookup(page ptable.IOVA) *entry {
	e := a.head
	if e == nil || e.page != page {
		if e = a.entries[page]; e == nil {
			return nil
		}
		a.touch(e)
	}
	return e
}

// serve charges n hits on e, stride bytes apart from v on, and reports
// whether the first was stale. It is the ATC's one hit path: Translate's
// hit is a run of one.
func (a *Cache) serve(e *entry, v ptable.IOVA, n, stride int) (firstStale bool) {
	a.c.Lookups += int64(n)
	a.c.Hits += int64(n)
	// Ground truth: a hit for an IOVA that is no longer mapped (or now
	// maps elsewhere) is the ATS stale window in action. A live leaf is
	// on v's current walk (see ptable.Leaf) and of e's own kind, so it
	// maps every offset in the page as e does, give or take one base:
	// one comparison answers for the whole run.
	live := e.leaf.Live()
	stale := live && e.leaf.Phys(v) != e.at(v)
	if stale {
		a.c.StaleHits += int64(n)
	}
	if live && a.audit == nil {
		return stale
	}
	for i := 0; i < n; i++ {
		u := v + ptable.IOVA(i*stride)
		p, uStale := e.at(u), stale
		// A dead leaf says nothing about what maps u now, so walk. This
		// stays per transaction: a 4KB entry whose page now sits under
		// a 2MB leaf can be stale at some offsets and not at others.
		if !live {
			if w, _, ok := a.table.LookupHugeAware(u); !ok || w.Phys != p {
				a.c.StaleHits++
				uStale = true
			}
		}
		if a.audit != nil {
			a.audit(u, iommu.Hit(p, iommu.ByATC, uStale))
		}
		if i == 0 {
			firstStale = uStale
		}
	}
	return firstStale
}

// miss sends an ATS translation request for v and caches a completed
// translation at the LRU head, with the leaf the request found.
func (a *Cache) miss(v, page ptable.IOVA) iommu.Translation {
	a.c.Lookups++
	a.c.Misses++
	a.mmu.ChargeATSRequest(a.dom)
	t, leaf := a.mmu.TranslateLeafIn(a.dom, v)
	t = t.WithReads(reqReads)
	if !t.OK() {
		a.c.PRIRequests++
		return t.WithReads(priReads)
	}
	if !leaf.Live() {
		// A stale IOTLB hit hands over no leaf: its page may sit under a
		// 2MB leaf now, where no 4KB leaf exists, so only a walk finds
		// what maps v.
		w, _, _ := a.table.LookupHugeAware(v)
		leaf = w.Leaf
	}
	huge := leaf.Huge()
	base := t.Phys
	if huge {
		base -= ptable.Phys(v - page)
	}
	a.insert(page, base, huge, leaf)
	return t
}

// Invalidate implements iommu.Translator: the host's unmap path sends
// one ATC-invalidate message for the range (dropping the covered device
// entries) and then forwards the request to the inner translator so the
// IOMMU caches are shot down too.
func (a *Cache) Invalidate(base ptable.IOVA, pages int, iotlbOnly bool) {
	a.c.InvMessages++
	var dropped int64
	for i := 0; i < pages; i++ {
		p := base.AlignDown() + ptable.IOVA(i*ptable.PageSize)
		if e, ok := a.entries[p]; ok {
			a.remove(e)
			dropped++
		}
	}
	a.c.Invalidated += dropped
	a.mmu.ChargeATCInvalidation(a.dom, dropped)
	a.inner.Invalidate(base, pages, iotlbOnly)
}

// InvalidateAll implements iommu.Translator: it empties the device TLB
// (one message) and flushes the domain's IOMMU entries.
func (a *Cache) InvalidateAll() {
	a.c.InvMessages++
	dropped := int64(len(a.entries))
	for a.head != nil {
		a.remove(a.head)
	}
	a.c.Invalidated += dropped
	a.mmu.ChargeATCInvalidation(a.dom, dropped)
	a.inner.InvalidateAll()
}

// RegisterProbes exposes the ATC counters under prefix (e.g. "nic0.ats.").
func (a *Cache) RegisterProbes(r *stats.Registry, prefix string) {
	probe := func(name string, fn func(Counters) int64) {
		r.GaugeFunc(prefix+name, func() float64 { return float64(fn(a.c)) })
	}
	probe("lookups", func(c Counters) int64 { return c.Lookups })
	probe("hits", func(c Counters) int64 { return c.Hits })
	probe("misses", func(c Counters) int64 { return c.Misses })
	probe("pri_requests", func(c Counters) int64 { return c.PRIRequests })
	probe("inv_messages", func(c Counters) int64 { return c.InvMessages })
	probe("invalidated", func(c Counters) int64 { return c.Invalidated })
	probe("evictions", func(c Counters) int64 { return c.Evictions })
	probe("stale_hits", func(c Counters) int64 { return c.StaleHits })
	r.GaugeFunc(prefix+"occupancy", func() float64 { return float64(len(a.entries)) })
}

func (a *Cache) insert(page ptable.IOVA, phys ptable.Phys, huge bool, leaf ptable.Leaf) {
	if len(a.entries) >= a.cfg.Entries {
		a.c.Evictions++
		a.remove(a.tail)
	}
	e := a.free
	if e != nil {
		a.free = e.next
	} else {
		e = new(entry)
	}
	*e = entry{page: page, phys: phys, huge: huge, leaf: leaf}
	a.entries[page] = e
	a.pushFront(e)
}

func (a *Cache) touch(e *entry) {
	if a.head == e {
		return
	}
	a.unlink(e)
	a.pushFront(e)
}

// remove drops e from the cache onto the free list. It drops e's leaf
// too, so no free entry keeps a reclaimed page-table page alive.
func (a *Cache) remove(e *entry) {
	a.unlink(e)
	delete(a.entries, e.page)
	e.leaf = ptable.Leaf{}
	e.next = a.free
	a.free = e
}

func (a *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		a.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		a.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (a *Cache) pushFront(e *entry) {
	e.next = a.head
	e.prev = nil
	if a.head != nil {
		a.head.prev = e
	}
	a.head = e
	if a.tail == nil {
		a.tail = e
	}
}
