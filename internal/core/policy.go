package core

import (
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// The protection-policy seam. Every Mode resolves to a Policy when the
// Domain is constructed, and the Domain's public datapath methods
// (MapRxDescriptor, UnmapRxDescriptor, RemapRxDescriptor, MapTx, UnmapTx,
// FlushDeferred) dispatch through it — the mode switches that used to
// live in domain.go and tx.go became the method sets below. Mode stays
// the stable parse/print surface; adding a protection design means
// registering a new Policy, not editing the hottest file in the tree.

// Policy is one protection design's datapath: how Rx descriptors are
// prepared, completed and remapped, how Tx packets are mapped and
// unmapped, and what the design guarantees (the predicate methods, which
// the corresponding Mode methods delegate to). The hooks are unexported:
// policies manipulate Domain internals and live in this package; outside
// callers select one by Mode and drive it through the Domain methods.
type Policy interface {
	// Mode returns the mode this policy is registered under.
	Mode() Mode
	// Translated reports whether DMA addresses pass through the IOMMU's
	// protection check (address translation or capability validation).
	Translated() bool
	// StrictSafety reports whether the device provably loses access to a
	// buffer as soon as its descriptor (or Tx packet) completes.
	StrictSafety() bool
	// Contiguous reports whether descriptor-sized (or larger) contiguous
	// IOVA chunks are allocated.
	Contiguous() bool
	// PreservesPTCaches reports whether invalidations keep the IOMMU's
	// page-table caches (F&S idea A).
	PreservesPTCaches() bool

	mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error)
	unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error)
	remapRx(d *Domain, desc *Descriptor) (sim.Duration, error)
	mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error)
	unmapTx(d *Domain, m *TxMapping) (sim.Duration, error)
}

// predicates carries a policy's identity and guarantee tuple.
type predicates struct {
	mode                          Mode
	translated, strict            bool
	contiguous, preservesPTCaches bool
}

func (p predicates) Mode() Mode              { return p.mode }
func (p predicates) Translated() bool        { return p.translated }
func (p predicates) StrictSafety() bool      { return p.strict }
func (p predicates) Contiguous() bool        { return p.contiguous }
func (p predicates) PreservesPTCaches() bool { return p.preservesPTCaches }

// policies is the registry the Mode surface resolves through. An
// unregistered mode is a construction-time error in NewDomain — the
// runtime `unhandled mode` branches are gone.
var policies = map[Mode]Policy{
	Off:              offPolicy{predicates: predicates{mode: Off}},
	Strict:           pagedPolicy{predicates: predicates{mode: Strict, translated: true, strict: true}},
	Deferred:         deferredPolicy{predicates: predicates{mode: Deferred, translated: true}},
	StrictPreserve:   pagedPolicy{predicates: predicates{mode: StrictPreserve, translated: true, strict: true, preservesPTCaches: true}},
	StrictContig:     contigPolicy{predicates: predicates{mode: StrictContig, translated: true, strict: true, contiguous: true}},
	FNS:              contigPolicy{predicates: predicates{mode: FNS, translated: true, strict: true, contiguous: true, preservesPTCaches: true}},
	Persistent:       persistentPolicy{predicates: predicates{mode: Persistent, translated: true}},
	FNSHuge:          hugePolicy{predicates: predicates{mode: FNSHuge, translated: true, contiguous: true, preservesPTCaches: true}},
	DeferNoShootdown: noShootdownPolicy{predicates: predicates{mode: DeferNoShootdown, translated: true, contiguous: true}},
	Cap:              capPolicy{predicates: predicates{mode: Cap, translated: true, strict: true, contiguous: true, preservesPTCaches: true}},
	CapLazyRevoke:    capPolicy{predicates: predicates{mode: CapLazyRevoke, translated: true, contiguous: true, preservesPTCaches: true}, lazy: true},
}

// PolicyFor resolves a mode to its registered policy.
func PolicyFor(m Mode) (Policy, bool) {
	p, ok := policies[m]
	return p, ok
}

// ---------------------------------------------------------------------------
// Off: no IOMMU, IOVAs are physical identities.

type offPolicy struct {
	predicates
}

func (offPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	pages := d.cfg.DescriptorPages
	desc := &Descriptor{cpu: cpu, IOVAs: make([]ptable.IOVA, 0, pages)}
	for i := 0; i < pages; i++ {
		desc.IOVAs = append(desc.IOVAs, ptable.IOVA(d.newPhys()))
	}
	return desc, 0, nil
}

func (offPolicy) unmapRx(*Domain, *Descriptor) (sim.Duration, error) { return 0, nil }

func (offPolicy) remapRx(*Domain, *Descriptor) (sim.Duration, error) { return 0, nil }

func (offPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	m := newTxMapping(cpu, pages, false)
	for i := 0; i < pages; i++ {
		m.IOVAs = append(m.IOVAs, ptable.IOVA(d.newPhys()))
	}
	return m, 0, nil
}

func (offPolicy) unmapTx(*Domain, *TxMapping) (sim.Duration, error) { return 0, nil }

// ---------------------------------------------------------------------------
// Strict / StrictPreserve: default Linux — per-page IOVAs, per-page
// invalidation requests (Figure 6a). StrictPreserve is ablation A:
// invalidations keep the page-table caches.

type pagedPolicy struct {
	predicates
}

func (pagedPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	return d.mapRxPaged(cpu)
}

func (p pagedPolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// Per-page unmap, per-page invalidation request (Figure 6a).
	var cost sim.Duration
	iotlbOnly := p.PreservesPTCaches()
	for _, v := range desc.IOVAs {
		res, err := d.table.Unmap(v, ptable.PageSize)
		if err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.UnmapPage
		d.c.PagesUnmapped++
		cost += d.invalidate(v, 1, iotlbOnly)
		if iotlbOnly && len(res.Reclaimed) > 0 {
			d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
			d.c.Reclaims += int64(len(res.Reclaimed))
		}
		cost += d.freeIOVA(desc.cpu, v, 1)
	}
	d.c.RxDescriptorsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

func (p pagedPolicy) remapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	return d.remapRxPaged(desc, p.PreservesPTCaches())
}

func (pagedPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	return d.mapTxPaged(cpu, pages)
}

func (p pagedPolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	var cost sim.Duration
	iotlbOnly := p.PreservesPTCaches()
	for _, v := range m.IOVAs {
		res, err := d.table.Unmap(v, ptable.PageSize)
		if err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.UnmapPage
		d.c.PagesUnmapped++
		cost += d.invalidate(v, 1, iotlbOnly)
		if iotlbOnly && len(res.Reclaimed) > 0 {
			d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
			d.c.Reclaims += int64(len(res.Reclaimed))
		}
		cost += d.freeIOVA(d.txFreeCPU(m.cpu), v, 1)
	}
	d.c.TxPacketsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

// ---------------------------------------------------------------------------
// Deferred: Linux lazy mode — unmap now, batch invalidations and IOVA
// frees until a threshold (or timer) flush.

type deferredPolicy struct {
	predicates
}

func (deferredPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	return d.mapRxPaged(cpu)
}

func (deferredPolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// Unmap now; batch the invalidation and the IOVA free until the
	// global flush.
	var cost sim.Duration
	for _, v := range desc.IOVAs {
		if _, err := d.table.Unmap(v, ptable.PageSize); err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.UnmapPage
		d.c.PagesUnmapped++
		d.deferredPending = append(d.deferredPending, pendingFree{v, 1, desc.cpu})
	}
	cost += d.maybeFlushDeferred()
	d.c.RxDescriptorsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

func (p deferredPolicy) remapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// Deferred degenerates to the strict remap: a registered window's
	// IOVAs are reused immediately, so their invalidation cannot sit in
	// the deferred batch.
	return d.remapRxPaged(desc, p.PreservesPTCaches())
}

func (deferredPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	return d.mapTxPaged(cpu, pages)
}

func (deferredPolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	var cost sim.Duration
	for _, v := range m.IOVAs {
		if _, err := d.table.Unmap(v, ptable.PageSize); err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.UnmapPage
		d.c.PagesUnmapped++
		d.deferredPending = append(d.deferredPending, pendingFree{v, 1, d.txFreeCPU(m.cpu)})
	}
	cost += d.maybeFlushDeferred()
	d.c.TxPacketsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

// ---------------------------------------------------------------------------
// StrictContig / FNS: descriptor-sized contiguous IOVA chunks with one
// ranged invalidation per descriptor (Figure 6b). FNS additionally keeps
// the page-table caches (idea A).

type contigPolicy struct {
	predicates
}

func (contigPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	return d.mapRxContig(cpu)
}

func (p contigPolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	return d.unmapRxContig(desc, true, p.PreservesPTCaches())
}

func (p contigPolicy) remapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	return d.remapRxContig(desc, true, p.PreservesPTCaches())
}

func (contigPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	return d.mapTxChunked(cpu, pages)
}

func (p contigPolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	return d.unmapTxChunked(m, true, p.PreservesPTCaches())
}

// ---------------------------------------------------------------------------
// Persistent: mappings live forever, descriptors and Tx pages recycle —
// the DAMN [34] / hugepage-pinning [16] family. No unmap, no
// invalidation, weaker safety.

type persistentPolicy struct {
	predicates
}

func (persistentPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	pages := d.cfg.DescriptorPages
	// Recycle a pre-mapped descriptor when available.
	if n := len(d.pool[cpu]); n > 0 {
		desc := d.pool[cpu][n-1]
		d.pool[cpu] = d.pool[cpu][:n-1]
		d.c.RxDescriptorsMapped++
		return desc, 0, nil
	}
	// First use: build a contiguous chunk and map it permanently.
	desc := &Descriptor{cpu: cpu, IOVAs: make([]ptable.IOVA, 0, pages)}
	base, cost, err := d.allocIOVA(cpu, pages)
	if err != nil {
		return nil, 0, err
	}
	desc.base, desc.contig, desc.persistent = base, true, true
	for i := 0; i < pages; i++ {
		v := base + ptable.IOVA(i*ptable.PageSize)
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		desc.IOVAs = append(desc.IOVAs, v)
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
	}
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return desc, cost, nil
}

func (persistentPolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// No unmap, no invalidation: recycle. The device retains access —
	// the weaker safety property.
	d.pool[desc.cpu] = append(d.pool[desc.cpu], desc)
	d.c.RxDescriptorsUnmapped++
	return 0, nil
}

func (persistentPolicy) remapRx(*Domain, *Descriptor) (sim.Duration, error) {
	// Persistent retains device access by design: remap is a free no-op.
	return 0, nil
}

func (persistentPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	m := newTxMapping(cpu, pages, false)
	var cost sim.Duration
	for i := 0; i < pages; i++ {
		if p := d.txPools(cpu); len(p.free) > 0 {
			v := p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			m.IOVAs = append(m.IOVAs, v)
			continue
		}
		v, c, err := d.allocIOVA(cpu, 1)
		if err != nil {
			return nil, 0, err
		}
		cost += c
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
		m.IOVAs = append(m.IOVAs, v)
	}
	d.c.TxPacketsMapped++
	d.c.CPUTime += cost
	return m, cost, nil
}

func (persistentPolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	p := d.txPools(m.cpu)
	p.free = append(p.free, m.IOVAs...)
	d.c.TxPacketsUnmapped++
	return 0, nil
}

// ---------------------------------------------------------------------------
// FNSHuge: Rx descriptors carved from 2MB huge mappings (§5 future
// work); the Tx datapath is unchanged from FNS.

type hugePolicy struct {
	predicates
}

func (hugePolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	return d.mapRxDescriptorHuge(cpu)
}

func (hugePolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	return d.unmapRxDescriptorHuge(desc)
}

func (hugePolicy) remapRx(*Domain, *Descriptor) (sim.Duration, error) {
	// FNSHuge revokes at 2MB granularity only — rotating one descriptor
	// inside a shared huge chunk is impossible, so the window behaves
	// persistently (the §5 trade-off at its extreme).
	return 0, nil
}

func (hugePolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	return d.mapTxChunked(cpu, pages)
}

func (p hugePolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	return d.unmapTxChunked(m, true, p.PreservesPTCaches())
}

// ---------------------------------------------------------------------------
// DeferNoShootdown: the deliberately unsafe strawman — contiguous unmaps
// like FNS, but no invalidation is ever submitted.

type noShootdownPolicy struct {
	predicates
}

func (noShootdownPolicy) mapRx(d *Domain, cpu int) (*Descriptor, sim.Duration, error) {
	// The strawman maps identically to FNS; it only differs on the unmap
	// side (no shootdown).
	return d.mapRxContig(cpu)
}

func (p noShootdownPolicy) unmapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// Ranged unmap like FNS, but no invalidation is ever submitted and
	// the IOVAs recycle immediately. Cached IOTLB/PTcache entries survive
	// past the unmap, so a later DMA — stray or legitimate after
	// recycling — can be served stale. The safety auditor exists to catch
	// exactly this.
	return d.unmapRxContig(desc, false, p.PreservesPTCaches())
}

func (p noShootdownPolicy) remapRx(d *Domain, desc *Descriptor) (sim.Duration, error) {
	// The strawman: re-point the pages, never tell the caches.
	return d.remapRxContig(desc, false, p.PreservesPTCaches())
}

func (noShootdownPolicy) mapTx(d *Domain, cpu, pages int) (*TxMapping, sim.Duration, error) {
	return d.mapTxChunked(cpu, pages)
}

func (p noShootdownPolicy) unmapTx(d *Domain, m *TxMapping) (sim.Duration, error) {
	// Ranged unmaps like FNS but no invalidation requests; chunk slots
	// recycle immediately.
	return d.unmapTxChunked(m, false, p.PreservesPTCaches())
}

// ---------------------------------------------------------------------------
// Shared datapath bodies. Each is the verbatim case body of the
// pre-seam switch, used by more than one policy.

// mapRxPaged is default Linux Rx preparation: one page-sized IOVA per
// page, no contiguity (Strict, Deferred, StrictPreserve).
func (d *Domain) mapRxPaged(cpu int) (*Descriptor, sim.Duration, error) {
	pages := d.cfg.DescriptorPages
	desc := &Descriptor{cpu: cpu, IOVAs: make([]ptable.IOVA, 0, pages)}
	var cost sim.Duration
	for i := 0; i < pages; i++ {
		v, c, err := d.allocIOVA(cpu, 1)
		if err != nil {
			return nil, 0, err
		}
		cost += c
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		desc.IOVAs = append(desc.IOVAs, v)
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
	}
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return desc, cost, nil
}

// mapRxContig is F&S idea B: one descriptor-sized contiguous chunk,
// mapped page by page (Figure 4b) — no hardware or allocator changes
// (StrictContig, FNS, DeferNoShootdown).
func (d *Domain) mapRxContig(cpu int) (*Descriptor, sim.Duration, error) {
	pages := d.cfg.DescriptorPages
	desc := &Descriptor{cpu: cpu, IOVAs: make([]ptable.IOVA, 0, pages)}
	base, cost, err := d.allocIOVA(cpu, pages)
	if err != nil {
		return nil, 0, err
	}
	desc.base, desc.contig = base, true
	for i := 0; i < pages; i++ {
		v := base + ptable.IOVA(i*ptable.PageSize)
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		desc.IOVAs = append(desc.IOVAs, v)
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
	}
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return desc, cost, nil
}

// unmapRxContig completes a contiguous descriptor: one ranged unmap and
// — when inv is set — a single batched invalidation request for the
// whole descriptor (Figure 6b); iotlbOnly is the calling policy's
// PTcache-preservation predicate. The strawman passes inv=false.
func (d *Domain) unmapRxContig(desc *Descriptor, inv, iotlbOnly bool) (sim.Duration, error) {
	var cost sim.Duration
	pages := len(desc.IOVAs)
	res, err := d.table.Unmap(desc.base, uint64(pages)*ptable.PageSize)
	if err != nil {
		return cost, err
	}
	cost += d.cfg.Costs.UnmapPage * sim.Duration(pages)
	d.c.PagesUnmapped += int64(pages)
	if inv {
		cost += d.invalidate(desc.base, pages, iotlbOnly)
		if iotlbOnly && len(res.Reclaimed) > 0 {
			d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
			d.c.Reclaims += int64(len(res.Reclaimed))
		}
	}
	cost += d.freeIOVA(desc.cpu, desc.base, pages)
	d.c.RxDescriptorsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}

// remapRxPaged rotates a registered window per page: unmap + eager
// per-page invalidation, then remap in place (Strict, StrictPreserve,
// Deferred); iotlbOnly is the calling policy's PTcache-preservation
// predicate.
func (d *Domain) remapRxPaged(desc *Descriptor, iotlbOnly bool) (sim.Duration, error) {
	var cost sim.Duration
	for _, v := range desc.IOVAs {
		res, err := d.table.Unmap(v, ptable.PageSize)
		if err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.UnmapPage
		d.c.PagesUnmapped++
		cost += d.invalidate(v, 1, iotlbOnly)
		if iotlbOnly && len(res.Reclaimed) > 0 {
			d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
			d.c.Reclaims += int64(len(res.Reclaimed))
		}
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
	}
	d.c.RxDescriptorsUnmapped++
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return cost, nil
}

// remapRxContig rotates a registered window with a ranged unmap, one
// batched invalidation (when inv is set — the strawman re-points the
// pages without telling the caches), then remaps page by page;
// iotlbOnly is the calling policy's PTcache-preservation predicate.
func (d *Domain) remapRxContig(desc *Descriptor, inv, iotlbOnly bool) (sim.Duration, error) {
	var cost sim.Duration
	pages := len(desc.IOVAs)
	res, err := d.table.Unmap(desc.base, uint64(pages)*ptable.PageSize)
	if err != nil {
		return cost, err
	}
	cost += d.cfg.Costs.UnmapPage * sim.Duration(pages)
	d.c.PagesUnmapped += int64(pages)
	if inv {
		cost += d.invalidate(desc.base, pages, iotlbOnly)
		if iotlbOnly && len(res.Reclaimed) > 0 {
			d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
			d.c.Reclaims += int64(len(res.Reclaimed))
		}
	}
	for _, v := range desc.IOVAs {
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
	}
	d.c.RxDescriptorsUnmapped++
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return cost, nil
}

// mapTxPaged maps a Tx packet with one page-sized IOVA per page (Strict,
// Deferred, StrictPreserve).
func (d *Domain) mapTxPaged(cpu, pages int) (*TxMapping, sim.Duration, error) {
	m := newTxMapping(cpu, pages, false)
	var cost sim.Duration
	for i := 0; i < pages; i++ {
		v, c, err := d.allocIOVA(cpu, 1)
		if err != nil {
			return nil, 0, err
		}
		cost += c
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
		m.IOVAs = append(m.IOVAs, v)
	}
	d.c.TxPacketsMapped++
	d.c.CPUTime += cost
	return m, cost, nil
}

// mapTxChunked fills per-CPU descriptor-sized IOVA chunks across packets
// in transmission order (§3's Tx generalisation: StrictContig, FNS,
// FNSHuge, DeferNoShootdown).
func (d *Domain) mapTxChunked(cpu, pages int) (*TxMapping, sim.Duration, error) {
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
		if err := d.table.Map(v, d.newPhys()); err != nil {
			return nil, 0, err
		}
		d.traceAccess(v)
		cost += d.cfg.Costs.MapPage
		d.c.PagesMapped++
		m.IOVAs = append(m.IOVAs, v)
		m.chunks = append(m.chunks, ch)
	}
	d.c.TxPacketsMapped++
	d.c.CPUTime += cost
	return m, cost, nil
}

// unmapTxChunked completes a chunk-mapped Tx packet: the packet's pages
// are grouped into contiguous runs (they are contiguous except across a
// chunk boundary), each run is unmapped — and, when inv is set, covered
// by one ranged invalidation — and chunk slots are released, freeing the
// chunk once fully released; iotlbOnly is the calling policy's
// PTcache-preservation predicate.
func (d *Domain) unmapTxChunked(m *TxMapping, inv, iotlbOnly bool) (sim.Duration, error) {
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
		res, err := d.table.Unmap(m.IOVAs[i], uint64(run)*ptable.PageSize)
		if err != nil {
			return cost, err
		}
		cost += d.cfg.Costs.UnmapPage * sim.Duration(run)
		d.c.PagesUnmapped += int64(run)
		if inv {
			cost += d.invalidate(m.IOVAs[i], run, iotlbOnly)
			if iotlbOnly && len(res.Reclaimed) > 0 {
				d.mmu.InvalidateReclaimedIn(d.domID, res.Reclaimed)
				d.c.Reclaims += int64(len(res.Reclaimed))
			}
		}
		// Release chunk slots; free the chunk once fully released.
		ch := m.chunks[i]
		ch.released += run
		if ch.released == ch.pages {
			cost += d.freeIOVA(d.txFreeCPU(m.cpu), ch.base, ch.pages)
			if d.txChunks[m.cpu] == ch {
				d.txChunks[m.cpu] = nil
			}
		}
		i = j
	}
	d.c.TxPacketsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}
