package core

import (
	"fmt"

	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// FNSHuge Rx datapath (§5 future work: integrating hugepages with F&S).
//
// Rx descriptors are carved out of 2MB huge IOVA mappings: one page-table
// entry and one IOTLB entry cover eight 64-page descriptors, so the
// per-page IOTLB miss floor drops from 1 to ~1/512. The price is revocation
// granularity: the huge mapping can only be unmapped once every descriptor
// inside it has completed, so safety holds at 2MB rather than descriptor
// granularity (still a bounded window, unlike deferred/persistent modes).

// hugeChunk is one in-flight 2MB huge mapping.
type hugeChunk struct {
	rawBase  ptable.IOVA // allocator range start (2x size for alignment)
	rawPages int
	base     ptable.IOVA // 2MB-aligned mapping base
	descs    int         // descriptors per chunk
	carved   int
	done     int
}

// hugePages is a 2MB chunk in 4KB pages.
const hugePages = int(ptable.HugeSize / ptable.PageSize)

// newPhysHuge returns a fresh 2MB-aligned fake physical address.
func (d *Domain) newPhysHuge() ptable.Phys {
	d.physNext = (d.physNext + uint64(hugePages) - 1) &^ (uint64(hugePages) - 1)
	p := ptable.Phys(d.physNext << ptable.PageShift)
	d.physNext += uint64(hugePages)
	return p
}

// mapRxDescriptorHuge carves the next descriptor from the CPU's current
// huge chunk, opening a new chunk when needed.
func (d *Domain) mapRxDescriptorHuge(cpu int) (*Descriptor, sim.Duration, error) {
	pages := d.cfg.DescriptorPages
	descBytes := uint64(pages) * ptable.PageSize
	descsPer := int(ptable.HugeSize / descBytes)
	if descsPer < 1 {
		return nil, 0, fmt.Errorf("core: descriptor (%d pages) larger than a hugepage", pages)
	}
	var cost sim.Duration
	hc := d.hugeRx[cpu]
	if hc == nil || hc.carved == hc.descs {
		// Allocate twice the span so a 2MB-aligned base always fits (the
		// allocator hands out page-aligned ranges only).
		raw, c, err := d.allocIOVA(cpu, 2*hugePages)
		if err != nil {
			return nil, 0, err
		}
		cost += c
		base := ptable.IOVA((uint64(raw) + ptable.HugeSize - 1) &^ (ptable.HugeSize - 1))
		if err := d.table.MapHuge(base, d.newPhysHuge()); err != nil {
			return nil, 0, err
		}
		cost += costMapPage // a single page-table entry
		d.c.PagesMapped += int64(hugePages)
		hc = &hugeChunk{rawBase: raw, rawPages: 2 * hugePages, base: base, descs: descsPer}
		d.hugeRx[cpu] = hc
	}
	desc := &Descriptor{cpu: cpu, huge: hc, IOVAs: make([]ptable.IOVA, 0, pages)}
	start := hc.base + ptable.IOVA(uint64(hc.carved)*descBytes)
	hc.carved++
	for i := 0; i < pages; i++ {
		v := start + ptable.IOVA(i*ptable.PageSize)
		d.traceAccess(v)
		desc.IOVAs = append(desc.IOVAs, v)
	}
	d.c.RxDescriptorsMapped++
	d.c.CPUTime += cost
	return desc, cost, nil
}

// unmapRxDescriptorHuge completes a descriptor; when the whole 2MB chunk
// has completed, the huge mapping is unmapped and its (single) IOTLB entry
// invalidated with one request.
func (d *Domain) unmapRxDescriptorHuge(desc *Descriptor) (sim.Duration, error) {
	hc := desc.huge
	if hc == nil {
		return 0, fmt.Errorf("core: descriptor has no huge chunk")
	}
	var cost sim.Duration
	hc.done++
	if hc.done == hc.descs {
		if err := d.table.UnmapHuge(hc.base); err != nil {
			return cost, err
		}
		cost += costUnmapPage // a single page-table entry
		d.c.PagesUnmapped += int64(hugePages)
		cost += d.invalidate(hc.base, hugePages, true)
		cost += d.freeIOVA(desc.cpu, hc.rawBase, hc.rawPages)
		if d.hugeRx[desc.cpu] == hc {
			d.hugeRx[desc.cpu] = nil
		}
	}
	d.c.RxDescriptorsUnmapped++
	d.c.CPUTime += cost
	return cost, nil
}
