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
	// ReqReads is the memory-read-equivalent cost of one ATS translation
	// request round trip, charged on top of the walk the request
	// triggers (default 1: the translation-agent completion message).
	ReqReads int
	// PRIReads is the additional cost of a PRI page request when the
	// translation request faults (default 5: page-request, IOMMU fault
	// handling, and the group-response round trip).
	PRIReads int
}

func (c Config) withDefaults() Config {
	if c.ReqReads == 0 {
		c.ReqReads = 1
	}
	if c.PRIReads == 0 {
		c.PRIReads = 5
	}
	return c
}

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
	page       ptable.IOVA // 4KB-aligned IOVA
	phys       ptable.Phys // physical base of the cached 4KB page
	huge       bool        // translation came from a 2MB leaf
	prev, next *entry
}

// Cache is one device's ATC over one protection domain.
type Cache struct {
	mmu   *iommu.IOMMU
	dom   iommu.DomainID
	inner iommu.Translator
	cfg   Config

	entries    map[ptable.IOVA]*entry
	head, tail *entry // LRU list, head = most recent
	// free holds removed entries, linked through next; inserts reuse them
	// (and an insert at capacity the evicted one) instead of allocating.
	free *entry
	c    Counters

	// audit, when set, observes every ATC *hit* (misses reach the
	// IOMMU's own audit hook through inner.Translate). It must not
	// mutate cache or table state.
	audit func(v ptable.IOVA, t iommu.Translation)
}

// New builds an ATC of cfg.Entries translations for domain d, layered in
// front of inner. cfg.Entries must be positive.
func New(m *iommu.IOMMU, d iommu.DomainID, inner iommu.Translator, cfg Config) *Cache {
	return &Cache{
		mmu:     m,
		dom:     d,
		inner:   inner,
		cfg:     cfg.withDefaults(),
		entries: make(map[ptable.IOVA]*entry),
	}
}

// SetAuditHook installs fn to observe every ATC hit (nil uninstalls).
func (a *Cache) SetAuditHook(fn func(ptable.IOVA, iommu.Translation)) { a.audit = fn }

// Counters returns a snapshot of the ATC counters.
func (a *Cache) Counters() Counters { return a.c }

// Len reports the live entry count.
func (a *Cache) Len() int { return len(a.entries) }

// Translate implements iommu.Translator: serve from the device TLB when
// possible, otherwise send an ATS translation request (the inner
// pipeline) and cache the completion. A faulting request costs an extra
// PRI round trip on top.
func (a *Cache) Translate(v ptable.IOVA) iommu.Translation {
	a.c.Lookups++
	page := v.AlignDown()
	if e, ok := a.entries[page]; ok {
		a.c.Hits++
		a.touch(e)
		// 4KB translations are page-granular in this model; 2MB leaves
		// resolve the full offset (matching the IOMMU's own convention).
		phys := e.phys
		if e.huge {
			phys += ptable.Phys(v - page)
		}
		t := iommu.Translation{Phys: phys, OK: true, ATC: true}
		// Ground truth: a hit for an IOVA that is no longer mapped (or
		// now maps elsewhere) is the ATS stale window in action.
		if w, _, ok := a.mmu.TableOf(a.dom).LookupHugeAware(v); !ok || w.Phys != t.Phys {
			a.c.StaleHits++
			t.Stale = true
		}
		if a.audit != nil {
			a.audit(v, t)
		}
		return t
	}
	a.c.Misses++
	a.mmu.ChargeATSRequest(a.dom)
	t := a.inner.Translate(v)
	t.MemReads += a.cfg.ReqReads
	if !t.OK {
		a.c.PRIRequests++
		t.MemReads += a.cfg.PRIReads
		return t
	}
	base, huge := t.Phys, a.mmu.TableOf(a.dom).HugeMapped(v)
	if huge {
		base -= ptable.Phys(v - page)
	}
	a.insert(page, base, huge)
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

func (a *Cache) insert(page ptable.IOVA, phys ptable.Phys, huge bool) {
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
	*e = entry{page: page, phys: phys, huge: huge}
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

// remove drops e from the cache onto the free list.
func (a *Cache) remove(e *entry) {
	a.unlink(e)
	delete(a.entries, e.page)
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
