package core

import (
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// The CAPIO-style capability family. The domain grants the device one
// capability per page at map time and the IOMMU validates every DMA
// against the per-domain capability table in O(1) — no IOTLB, no
// page-table walk, no memory reads on the guarded path. Unmap revokes
// the capability instead of queueing an IOTLB invalidation: an O(1)
// table update with no completion round trip. The shadow IO page table
// is still maintained — it is the safety auditor's ground truth — but
// the device never reads it, so the protection costs on the datapath
// are CapGrant/CapRevoke, not MapPage/UnmapPage/InvRequest.
//
// Two variants share the policy body:
//
//	cap            — synchronous revocation on unmap. Strict-equivalent
//	                 safety: the device provably loses access the moment
//	                 a descriptor (or Tx packet) completes.
//	cap-lazyrevoke — unmaps only queue the revocation; a threshold (or
//	                 the 10ms timer) flush kills the batch, the
//	                 capability analogue of Linux's deferred mode. IOVA
//	                 frees ride the same batch so no address can be
//	                 re-granted while an old capability still covers it.

// capabilityMode reports whether m belongs to the capability family.
func capabilityMode(m Mode) bool { return m == Cap || m == CapLazyRevoke }

// capRegrant is a window re-grant deferred to the lazy flush: the
// grant-table overwrite that replaces ATC shootdown on remaps.
type capRegrant struct {
	v    ptable.IOVA
	phys ptable.Phys
}

type capPolicy struct {
	predicates
	lazy bool
}

func (p capPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	pages := d.cfg.DescriptorPages
	desc := &Descriptor{cpu: cpu, IOVAs: make([]ptable.IOVA, 0, pages)}
	base, cost, err := d.allocIOVA(cpu, pages)
	if err != nil {
		return nil, 0, err
	}
	desc.base, desc.contig = base, true
	for i := 0; i < pages; i++ {
		v := base + ptable.IOVA(i*ptable.PageSize)
		phys := d.newPhys()
		if err := d.table.Map(v, phys); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		desc.IOVAs = append(desc.IOVAs, v)
		d.caps.Grant(v, phys)
		cost += d.cfg.Costs.CapGrant
		d.c.PagesMapped++
	}
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return desc, cost, nil
}

func (p capPolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	var cost sim.Duration
	pages := len(desc.IOVAs)
	if _, err := d.table.Unmap(desc.base, uint64(pages)*ptable.PageSize); err != nil {
		return cost, err
	}
	d.c.PagesUnmapped += int64(pages)
	if p.lazy {
		// Queue the revocation and the IOVA free; one bookkeeping charge
		// for the batch append. Until the flush the device's capability
		// still stands — the window the auditor must catch.
		d.capRevokes = append(d.capRevokes, pendingFree{desc.base, pages, desc.cpu})
		d.capFrees = append(d.capFrees, pendingFree{desc.base, pages, desc.cpu})
		d.capPendingPages += pages
		cost += d.cfg.Costs.CacheAlloc
		cost += d.maybeFlushCaps()
	} else {
		// Synchronous revocation: O(1) per page, no completion wait.
		for _, v := range desc.IOVAs {
			d.caps.Revoke(v)
			cost += d.cfg.Costs.CapRevoke
		}
		cost += d.freeIOVA(desc.cpu, desc.base, pages)
	}
	d.c.RxDescriptorsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

func (p capPolicy) remapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// Window rotation: re-granting the capability at the new frame is
	// the synchronization point — the device's access is gated solely by
	// the grant table, so no shootdown round-trip (and no ATC message)
	// is needed. The shadow table is re-pointed for the auditor.
	var cost sim.Duration
	pages := len(desc.IOVAs)
	if _, err := d.table.Unmap(desc.base, uint64(pages)*ptable.PageSize); err != nil {
		return cost, err
	}
	d.c.PagesUnmapped += int64(pages)
	for _, v := range desc.IOVAs {
		phys := d.newPhys()
		if err := d.table.Map(v, phys); err != nil {
			return cost, err
		}
		d.c.PagesMapped++
		if p.lazy {
			// Defer the re-grant: until the flush, the old capability
			// keeps serving the old frame — a stale-capability window.
			d.capRegrants = append(d.capRegrants, capRegrant{v, phys})
			d.capPendingPages++
		} else {
			// Overwrite in place; the overwrite counts as revocation.
			d.caps.Grant(v, phys)
			cost += d.cfg.Costs.CapGrant
		}
	}
	if p.lazy {
		cost += d.cfg.Costs.CacheAlloc
		cost += d.maybeFlushCaps()
	}
	d.c.RxDescriptorsUnmapped++
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return cost, nil
}

func (p capPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	// Chunked like FNS — per-CPU descriptor-sized IOVA chunks filled
	// across packets — but each page's protection cost is the grant.
	m := newTxMapping(cpu, pages, true)
	var cost sim.Duration
	for i := 0; i < pages; i++ {
		ch := d.txChunks[cpu]
		if ch == nil || ch.next == ch.pages {
			base, c, err := d.allocIOVA(cpu, d.cfg.DescriptorPages)
			if err != nil {
				return nil, 0, err
			}
			cost += c
			ch = &txChunk{base: base, pages: d.cfg.DescriptorPages}
			d.txChunks[cpu] = ch
		}
		v := ch.base + ptable.IOVA(ch.next*ptable.PageSize)
		ch.next++
		phys := d.newPhys()
		if err := d.table.Map(v, phys); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		d.caps.Grant(v, phys)
		cost += d.cfg.Costs.CapGrant
		d.c.PagesMapped++
		m.IOVAs = append(m.IOVAs, v)
		m.chunks = append(m.chunks, ch)
	}
	d.c.TxPacketsMapped++
	d.c.CPUTime += cost
	return m, cost, nil
}

func (p capPolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	var cost sim.Duration
	i := 0
	for i < len(m.IOVAs) {
		j := i + 1
		for j < len(m.IOVAs) &&
			m.IOVAs[j] == m.IOVAs[j-1]+ptable.PageSize &&
			m.chunks[j] == m.chunks[i] {
			j++
		}
		run := j - i
		if _, err := d.table.Unmap(m.IOVAs[i], uint64(run)*ptable.PageSize); err != nil {
			return cost, err
		}
		d.c.PagesUnmapped += int64(run)
		if p.lazy {
			d.capRevokes = append(d.capRevokes, pendingFree{m.IOVAs[i], run, m.cpu})
			d.capPendingPages += run
			cost += d.cfg.Costs.CacheAlloc
		} else {
			for k := 0; k < run; k++ {
				d.caps.Revoke(m.IOVAs[i] + ptable.IOVA(k*ptable.PageSize))
				cost += d.cfg.Costs.CapRevoke
			}
		}
		// Release chunk slots; free the chunk once fully released (the
		// lazy variant pends the free behind its revocations).
		ch := m.chunks[i]
		ch.released += run
		if ch.released == ch.pages {
			if p.lazy {
				d.capFrees = append(d.capFrees, pendingFree{ch.base, ch.pages, d.txFreeCPU(m.cpu)})
			} else {
				cost += d.freeIOVA(d.txFreeCPU(m.cpu), ch.base, ch.pages)
			}
			if d.txChunks[m.cpu] == ch {
				d.txChunks[m.cpu] = nil
			}
		}
		i = j
	}
	if p.lazy {
		cost += d.maybeFlushCaps()
	}
	d.c.TxPacketsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

// maybeFlushCaps runs the lazy-revoke flush once enough pages are
// pending (the threshold path; the caller's cost tail charges it).
func (d *Domain) maybeFlushCaps() sim.Duration {
	if d.capPendingPages < d.knobs.DeferredLimit {
		return 0
	}
	return d.capFlush()
}

// capFlush drains the lazy batches: a single sweep kills the pending
// grants (amortized per-entry table update, cheaper than an eager
// revoke), the queued IOVA ranges are released, and deferred window
// re-grants are installed. Order matters — revocations before frees
// keeps any address from being re-granted while an old capability
// covers it.
func (d *Domain) capFlush() sim.Duration {
	if len(d.capRevokes) == 0 && len(d.capFrees) == 0 && len(d.capRegrants) == 0 {
		return 0
	}
	var cost sim.Duration
	for _, p := range d.capRevokes {
		for i := 0; i < p.pages; i++ {
			d.caps.Revoke(p.base + ptable.IOVA(i*ptable.PageSize))
			cost += d.cfg.Costs.CacheAlloc
		}
	}
	d.capRevokes = d.capRevokes[:0]
	for _, p := range d.capFrees {
		cost += d.freeIOVA(p.cpu, p.base, p.pages)
	}
	d.capFrees = d.capFrees[:0]
	for _, rg := range d.capRegrants {
		d.caps.Grant(rg.v, rg.phys)
		cost += d.cfg.Costs.CapGrant
	}
	d.capRegrants = d.capRegrants[:0]
	d.capPendingPages = 0
	d.c.DeferredFlushes++
	return cost
}

// CapTable exposes the domain's capability table (nil outside the
// capability family).
func (d *Domain) CapTable() *iommu.CapTable { return d.caps }
