package core

import (
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// The protection-policy table. Every Mode is one row: the guarantees it
// makes plus two mechanisms, a layout (where a mapping's IOVAs come
// from) and a revocation (how the device loses access when the driver
// unmaps). The Domain's driver operations switch on those mechanisms,
// never on the mode, so each mechanism is written once here and a mode
// that combines existing mechanisms is one more row.

// layout is where a mapping's IOVAs come from.
type layout uint8

const (
	// identity: no IOMMU, IOVAs are physical addresses.
	identity layout = iota
	// paged: one page-sized IOVA allocation per page (default Linux).
	paged
	// contig: one descriptor-sized chunk per Rx descriptor, and per-CPU
	// descriptor-sized chunks filled across Tx packets (F&S idea B).
	contig
	// huge: Rx descriptors carved from 2MB mappings (huge.go); Tx as
	// contig.
	huge
	// pinned: mapped once, recycled, never unmapped — the DAMN [34] /
	// hugepage-pinning [16] family.
	pinned
)

// revocation is how the device loses access to pages the driver unmaps.
type revocation uint8

const (
	// invalidate submits one invalidation request per unmapped run,
	// keeping the page-table caches when the row preserves them (idea A).
	invalidate revocation = iota
	// noShootdown never tells the caches: the deliberately unsafe
	// strawman, whose recycled IOVAs can be served stale.
	noShootdown
	// deferredFlush (Linux lazy mode) batches the invalidations and the
	// IOVA frees behind one domain-selective flush.
	deferredFlush
	// revokeCap kills each page's capability synchronously: O(1) per
	// page, no completion wait.
	revokeCap
	// lazyRevokeCap batches the capability kills and the IOVA frees
	// behind one grant sweep, the capability analogue of deferredFlush.
	lazyRevokeCap
)

// Policy is one protection mode's row: what the mode guarantees (the
// predicate methods, which the corresponding Mode methods delegate to)
// and the layout and revocation its datapath runs.
type Policy struct {
	translated, strict            bool
	contiguous, preservesPTCaches bool
	layout                        layout
	revocation                    revocation
}

// Translated reports whether DMA addresses pass through the IOMMU's
// protection check (address translation or capability validation).
func (p *Policy) Translated() bool { return p.translated }

// StrictSafety reports whether the device provably loses access to a
// buffer as soon as its descriptor (or Tx packet) completes.
func (p *Policy) StrictSafety() bool { return p.strict }

// Contiguous reports whether descriptor-sized (or larger) contiguous
// IOVA chunks are allocated.
func (p *Policy) Contiguous() bool { return p.contiguous }

// PreservesPTCaches reports whether invalidations keep the IOMMU's
// page-table caches (F&S idea A).
func (p *Policy) PreservesPTCaches() bool { return p.preservesPTCaches }

// batched reports whether unmaps queue their revocation and IOVA frees
// behind the domain's batch.
func (p *Policy) batched() bool {
	return p.revocation == deferredFlush || p.revocation == lazyRevokeCap
}

// switchable reports whether a domain may enter or leave this row at
// runtime. The other layouts pin state no transition protocol can
// drain: identity never built page tables, and pinned descriptor pools
// and huge layouts' shared 2MB chunks hold live mappings with no
// per-descriptor completion point.
func (p *Policy) switchable() bool { return p.layout == paged || p.layout == contig }

// rxRun is the pages per run of an Rx descriptor: a paged descriptor is
// runs of one page, a contiguous one is one run.
func (p *Policy) rxRun(pages int) int {
	if p.layout == paged {
		return 1
	}
	return pages
}

// policies is the table the Mode surface resolves through, indexed by
// Mode; NewDomain rejects a mode without a row. Identity and pinned rows
// never revoke.
var policies = [...]*Policy{
	Off:              {layout: identity},
	Strict:           {translated: true, strict: true, layout: paged, revocation: invalidate},
	Deferred:         {translated: true, layout: paged, revocation: deferredFlush},
	StrictPreserve:   {translated: true, strict: true, preservesPTCaches: true, layout: paged, revocation: invalidate},
	StrictContig:     {translated: true, strict: true, contiguous: true, layout: contig, revocation: invalidate},
	FNS:              {translated: true, strict: true, contiguous: true, preservesPTCaches: true, layout: contig, revocation: invalidate},
	Persistent:       {translated: true, layout: pinned},
	FNSHuge:          {translated: true, contiguous: true, preservesPTCaches: true, layout: huge, revocation: invalidate},
	DeferNoShootdown: {translated: true, contiguous: true, layout: contig, revocation: noShootdown},
	Cap:              {translated: true, strict: true, contiguous: true, preservesPTCaches: true, layout: contig, revocation: revokeCap},
	CapLazyRevoke:    {translated: true, contiguous: true, preservesPTCaches: true, layout: contig, revocation: lazyRevokeCap},
}

// PolicyFor resolves a mode to its row.
func PolicyFor(m Mode) (*Policy, bool) {
	if uint(m) >= uint(len(policies)) || policies[m] == nil {
		return nil, false
	}
	return policies[m], true
}

// MapRxDescriptor prepares an Rx descriptor of the configured page count
// on cpu's ring (§2.1 step 1). It returns the descriptor and the CPU time
// spent. In Off mode IOVAs are identities for fresh physical pages.
func (d *Domain) MapRxDescriptor(cpu int) (*Descriptor, sim.Duration, error) {
	p, pages := d.pol, d.cfg.DescriptorPages
	switch p.layout {
	case identity:
		desc := &Descriptor{cpu: cpu, pol: p, IOVAs: make([]ptable.IOVA, 0, pages)}
		for i := 0; i < pages; i++ {
			desc.IOVAs = append(desc.IOVAs, ptable.IOVA(d.newPhys()))
		}
		return desc, 0, nil
	case huge:
		desc, cost, err := d.mapRxDescriptorHuge(cpu)
		if desc != nil {
			desc.pol = p
		}
		return desc, cost, err
	case pinned:
		if n := len(d.pool[cpu]); n > 0 {
			desc := d.pool[cpu][n-1]
			d.pool[cpu] = d.pool[cpu][:n-1]
			d.c.RxDescriptorsMapped++
			return desc, 0, nil
		}
	}
	desc := &Descriptor{cpu: cpu, pol: p, IOVAs: make([]ptable.IOVA, 0, pages)}
	iovas, cost, err := d.mapRuns(cpu, pages, p.rxRun(pages), desc.IOVAs)
	if err != nil {
		return nil, 0, err
	}
	desc.IOVAs = iovas
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return desc, cost, nil
}

// UnmapRxDescriptor completes an Rx descriptor (§2.1 step 4): unmap every
// page, invalidate (or revoke) per the policy that mapped it, free the
// IOVAs.
func (d *Domain) UnmapRxDescriptor(desc *Descriptor) (sim.Duration, error) {
	p := desc.pol
	switch p.layout {
	case identity:
		return 0, nil
	case huge:
		return d.unmapRxDescriptorHuge(desc)
	case pinned:
		// Recycle: the device keeps access, the weaker safety property.
		d.pool[desc.cpu] = append(d.pool[desc.cpu], desc)
		d.c.RxDescriptorsUnmapped++
		return 0, nil
	}
	var cost sim.Duration
	run := p.rxRun(len(desc.IOVAs))
	for i := 0; i < len(desc.IOVAs); i += run {
		c, err := d.unmapRun(p, p.revocation, desc.IOVAs[i], run)
		cost += c
		if err != nil {
			return cost, err
		}
		cost += d.release(p, desc.cpu, desc.IOVAs[i], run)
	}
	cost += d.maybeFlush(p)
	d.c.RxDescriptorsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

// RemapRxDescriptor rotates the buffers behind a registered descriptor:
// one-sided RDMA peers address a memory window by fixed offsets for the
// life of the registration, so the IOVA layout is preserved while every
// page is unmapped — paying the mode's invalidation policy, including
// the ATC shoot-down when a device cache is attached — and remapped to
// fresh physical pages. This is exactly where an unsafe mode shows:
// DeferNoShootdown re-points the pages with no invalidation at all, so
// the IOTLB and any device-side ATC keep serving the old physical
// addresses for IOVAs that are still mapped — just not there.
func (d *Domain) RemapRxDescriptor(desc *Descriptor) (sim.Duration, error) {
	p := desc.pol
	rev := p.revocation
	switch {
	case p.layout != paged && p.layout != contig:
		// Identity and pinned windows keep device access by design, and
		// a huge chunk revokes only at 2MB granularity: rotating one
		// descriptor inside it is impossible (§5's trade-off at its
		// extreme). The window stays in place, free.
		return 0, nil
	case rev == deferredFlush:
		// The IOVAs are reused at once, so their invalidation cannot
		// sit in the batch.
		rev = invalidate
	case rev == revokeCap || rev == lazyRevokeCap:
		// The re-grant at the new frame is itself the revocation; only
		// the shadow table is unmapped.
		rev = noShootdown
	}
	var cost sim.Duration
	run := p.rxRun(len(desc.IOVAs))
	for i := 0; i < len(desc.IOVAs); i += run {
		c, err := d.unmapRun(p, rev, desc.IOVAs[i], run)
		cost += c
		if err != nil {
			return cost, err
		}
		for _, v := range desc.IOVAs[i : i+run] {
			c, err := d.remapPage(p, v)
			cost += c
			if err != nil {
				return cost, err
			}
		}
	}
	if p.revocation == lazyRevokeCap {
		cost += costCacheAlloc + d.maybeFlush(p)
	}
	d.c.RxDescriptorsUnmapped++
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return cost, nil
}

// MapTx maps a Tx packet occupying the given number of pages on cpu. The
// record it returns may be one an earlier UnmapTx released: it stays
// live, and the caller's, until UnmapTx succeeds on it.
func (d *Domain) MapTx(cpu, pages int) (*TxMapping, sim.Duration, error) {
	if pages <= 0 {
		pages = 1
	}
	p := d.pol
	m := pop(&d.freeTx)
	m.cpu, m.pol = cpu, p
	var cost sim.Duration
	var err error
	switch p.layout {
	case identity:
		for i := 0; i < pages; i++ {
			m.IOVAs = append(m.IOVAs, ptable.IOVA(d.newPhys()))
		}
		return m, 0, nil
	case pinned:
		// Recycle pre-mapped pages first.
		pool := d.txPools(cpu)
		for len(pool.free) > 0 && len(m.IOVAs) < pages {
			m.IOVAs = append(m.IOVAs, pool.free[len(pool.free)-1])
			pool.free = pool.free[:len(pool.free)-1]
		}
		fallthrough
	case paged:
		m.IOVAs, cost, err = d.mapRuns(cpu, pages-len(m.IOVAs), 1, m.IOVAs)
	default:
		cost, err = d.mapChunked(m, pages)
	}
	if err != nil {
		return nil, 0, err
	}
	d.c.TxPacketsMapped++
	d.c.CPUTime += cost
	return m, cost, nil
}

// UnmapTx completes a Tx packet: unmap its pages and invalidate (or
// revoke) per the policy that mapped it — a packet in flight across a
// runtime mode switch completes under the rules that laid it out.
// Strict safety requires the device to lose access as soon as the
// packet completes, so even F&S invalidates here — but ranged over each
// contiguous run the packet occupies within its chunks.
//
// Once UnmapTx succeeds the mapping is dead: the domain empties the
// record and hands it to a later MapTx. Unmapping a record that is not
// live is an error that changes nothing, and an UnmapTx that fails
// leaves the record live.
func (d *Domain) UnmapTx(m *TxMapping) (sim.Duration, error) {
	p := m.pol
	if p == nil {
		return 0, errTxUnmapped
	}
	switch p.layout {
	case identity:
		d.releaseTx(m)
		return 0, nil
	case pinned:
		pool := d.txPools(m.cpu)
		pool.free = append(pool.free, m.IOVAs...)
		d.releaseTx(m)
		d.c.TxPacketsUnmapped++
		return 0, nil
	}
	cpu := d.txFreeCPU(m.cpu)
	var cost sim.Duration
	for i, j := 0, 1; i < len(m.IOVAs); i, j = j, j+1 {
		// A paged packet is runs of one page, a chunked one a run per
		// chunk it touches.
		for p.layout != paged && j < len(m.IOVAs) &&
			m.IOVAs[j] == m.IOVAs[j-1]+ptable.PageSize && m.chunks[j] == m.chunks[i] {
			j++
		}
		c, err := d.unmapRun(p, p.revocation, m.IOVAs[i], j-i)
		cost += c
		if err != nil {
			return cost, err
		}
		if p.layout == paged {
			cost += d.release(p, cpu, m.IOVAs[i], 1)
			continue
		}
		// Release chunk slots; free the chunk once fully released.
		ch := m.chunks[i]
		ch.released += j - i
		if ch.released == ch.pages {
			cost += d.release(p, cpu, ch.base, ch.pages)
			if d.txChunks[m.cpu] == ch {
				d.txChunks[m.cpu] = nil
			}
			d.freeChunks = append(d.freeChunks, ch)
		}
	}
	cost += d.maybeFlush(p)
	d.releaseTx(m)
	d.c.TxPacketsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

// mapPage maps v to a fresh physical page and records its L3 trace. A
// capability domain also grants the device the page, at CapGrant
// instead of MapPage.
func (d *Domain) mapPage(v ptable.IOVA) (sim.Duration, error) {
	phys := d.newPhys()
	if err := d.table.Map(v, phys); err != nil {
		return 0, err
	}
	d.traceAccess(v)
	d.c.PagesMapped++
	if d.caps != nil {
		d.caps.Grant(v, phys)
		return costCapGrant, nil
	}
	return costMapPage, nil
}

// mapRun maps the n pages from base, appending their IOVAs.
func (d *Domain) mapRun(base ptable.IOVA, n int, iovas []ptable.IOVA) ([]ptable.IOVA, sim.Duration, error) {
	var cost sim.Duration
	for i := 0; i < n; i++ {
		v := base + ptable.IOVA(i*ptable.PageSize)
		c, err := d.mapPage(v)
		if err != nil {
			return iovas, cost, err
		}
		cost += c
		iovas = append(iovas, v)
	}
	return iovas, cost, nil
}

// mapRuns maps pages pages on cpu as runs of run pages, each run one
// IOVA allocation.
func (d *Domain) mapRuns(cpu, pages, run int, iovas []ptable.IOVA) ([]ptable.IOVA, sim.Duration, error) {
	var cost sim.Duration
	for k := 0; k < pages; k += run {
		base, c, err := d.allocIOVA(cpu, run)
		if err != nil {
			return iovas, cost, err
		}
		cost += c
		if iovas, c, err = d.mapRun(base, run, iovas); err != nil {
			return iovas, cost, err
		}
		cost += c
	}
	return iovas, cost, nil
}

// mapChunked fills the packet's CPU's descriptor-sized IOVA chunks
// across packets in transmission order (§3's Tx generalisation): one run
// per chunk the packet touches.
func (d *Domain) mapChunked(m *TxMapping, pages int) (sim.Duration, error) {
	var cost sim.Duration
	for len(m.IOVAs) < pages {
		ch := d.txChunks[m.cpu]
		if ch == nil || ch.next == ch.pages {
			base, c, err := d.allocIOVA(m.cpu, d.cfg.DescriptorPages)
			if err != nil {
				return cost, err
			}
			cost += c
			ch = pop(&d.freeChunks)
			*ch = txChunk{base: base, pages: d.cfg.DescriptorPages}
			d.txChunks[m.cpu] = ch
		}
		n := min(pages-len(m.IOVAs), ch.pages-ch.next)
		v := ch.base + ptable.IOVA(ch.next*ptable.PageSize)
		ch.next += n
		iovas, c, err := d.mapRun(v, n, m.IOVAs)
		m.IOVAs = iovas
		if err != nil {
			return cost, err
		}
		cost += c
		for k := 0; k < n; k++ {
			m.chunks = append(m.chunks, ch)
		}
	}
	return cost, nil
}

// remapPage points the still-reserved IOVA v at a fresh physical page.
// In the capability family the grant moves with it: eagerly (the
// overwrite revokes the old grant) or deferred to the batch, leaving the
// old grant serving the old frame until the flush.
func (d *Domain) remapPage(p *Policy, v ptable.IOVA) (sim.Duration, error) {
	phys := d.newPhys()
	if err := d.table.Map(v, phys); err != nil {
		return 0, err
	}
	d.c.PagesMapped++
	switch p.revocation {
	case revokeCap:
		d.caps.Grant(v, phys)
		return costCapGrant, nil
	case lazyRevokeCap:
		d.batch.regrants = append(d.batch.regrants, capRegrant{v, phys})
		d.batch.pages++
		return 0, nil
	}
	return costMapPage, nil
}

// unmapRun unmaps the n pages from base with one table unmap, then
// revokes the device's access to them as rev says. A capability
// domain's shadow table is free to update; a page-table domain pays
// UnmapPage per page.
func (d *Domain) unmapRun(p *Policy, rev revocation, base ptable.IOVA, n int) (sim.Duration, error) {
	res, err := d.table.Unmap(base, uint64(n)*ptable.PageSize)
	if err != nil {
		return 0, err
	}
	var cost sim.Duration
	if d.caps == nil {
		cost = costUnmapPage * sim.Duration(n)
	}
	d.c.PagesUnmapped += int64(n)
	switch rev {
	case invalidate:
		cost += d.invalidate(base, n, p.preservesPTCaches)
		if p.preservesPTCaches && len(res.Reclaimed) > 0 {
			// Keeping the page-table caches is safe only if entries
			// pointing at reclaimed page-table pages go too.
			d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
			d.c.Reclaims += int64(len(res.Reclaimed))
		}
	case deferredFlush:
		d.batch.pages += n
	case revokeCap:
		for i := 0; i < n; i++ {
			d.caps.Revoke(base + ptable.IOVA(i*ptable.PageSize))
			cost += costCapRevoke
		}
	case lazyRevokeCap:
		// Until the flush the device's capability still stands: the
		// window the auditor must catch. One bookkeeping charge for the
		// batch append.
		d.batch.revokes = append(d.batch.revokes, pendingFree{base: base, pages: n})
		d.batch.pages += n
		cost += costCacheAlloc
	}
	return cost, nil
}

// release frees an unmapped IOVA range now or, under a batched
// revocation, queues the free behind the batch, so no address is reused
// while the device may still reach it.
func (d *Domain) release(p *Policy, cpu int, base ptable.IOVA, n int) sim.Duration {
	if p.batched() {
		d.batch.frees = append(d.batch.frees, pendingFree{base, n, cpu})
		return 0
	}
	return d.freeIOVA(cpu, base, n)
}

// batch is the one deferred-revocation batch: deferred's pending
// invalidations or cap-lazyrevoke's pending revocations, with the IOVA
// frees and window re-grants queued behind them. A domain never changes
// protection family, so it only ever holds one family's entries.
type batch struct {
	pages    int           // unmapped pages the device may still reach
	revokes  []pendingFree // capability ranges killed at the flush
	frees    []pendingFree // IOVA ranges released at the flush
	regrants []capRegrant  // window re-grants installed at the flush
}

// maybeFlush flushes the batch once a batched revocation has let enough
// pages pile up (the threshold path; the caller charges the cost).
func (d *Domain) maybeFlush(p *Policy) sim.Duration {
	if !p.batched() || d.batch.pages < d.cfg.DeferredLimit {
		return 0
	}
	return d.flush()
}

// flush drains the batch. A page-table domain submits one
// domain-selective flush (Linux's flush queue invalidates the whole
// domain, not the whole IOMMU); a capability
// domain sweeps the pending grants away, an amortized per-entry table
// update cheaper than an eager revoke. Revocation comes before the
// frees, so no address is re-granted while an old capability or cached
// translation still covers it.
func (d *Domain) flush() sim.Duration {
	b := &d.batch
	if b.pages == 0 {
		return 0
	}
	var cost sim.Duration
	if d.caps == nil {
		cost = d.flushInvalidate()
	}
	for _, r := range b.revokes {
		for i := 0; i < r.pages; i++ {
			d.caps.Revoke(r.base + ptable.IOVA(i*ptable.PageSize))
			cost += costCacheAlloc
		}
	}
	for _, f := range b.frees {
		cost += d.freeIOVA(f.cpu, f.base, f.pages)
	}
	for _, rg := range b.regrants {
		d.caps.Grant(rg.v, rg.phys)
		cost += costCapGrant
	}
	*b = batch{revokes: b.revokes[:0], frees: b.frees[:0], regrants: b.regrants[:0]}
	d.c.DeferredFlushes++
	return cost
}
