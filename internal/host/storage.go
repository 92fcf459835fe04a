package host

import (
	"fmt"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// A storage DMA's block: 128KB, in 4KB pages.
const (
	blockBytes = 128 << 10
	blockPages = (blockBytes + ptable.PageSize - 1) / ptable.PageSize
)

// storage is an NVMe-style storage controller: it starts 128KB block
// read DMAs at a fixed rate through its own PCIe link, with translations
// through the host's shared IOMMU — same IOTLB, same page-table caches,
// same walkers as every other device on the host. Its block DMAs are
// mapped and unmapped through its domain's protection mode, so under
// strict mode its per-block invalidations pollute the caches the network
// datapath depends on — the cross-device interference production
// deployments observe (the "violation of isolation guarantees"
// motivation in §1). Under F&S the storage traffic uses contiguous
// chunks and IOTLB-only invalidations, so the pollution collapses.
type storage struct {
	h        *Host
	name     string
	cpu      int          // host core the driver work runs on
	dom      *core.Domain // own protection domain, shared IOMMU
	link     *pcie.Link
	faults   *fault.Device
	interval sim.Duration
	blocks   int64 // completed block DMAs

	// Blocks mapped and not yet submitted, and submitted and not yet
	// unmapped, each oldest first. The host core runs work FIFO and the
	// link completes DMAs FIFO, so the submit, and later the unmap,
	// always takes the oldest block of its queue.
	mapped, submitted sim.FIFO[*core.TxMapping]
	// The stages of a block, bound once so a block allocates nothing.
	issueFn, submitFn, completeFn func()
	mapFn, unmapFn                func() sim.Duration
}

// newStorage builds storage device i of the Topology: own link, own
// domain, shared IOMMU. It runs its driver on core Cores+TxFlows+1+i with
// domain seed offset 1000+i, above the primary datapath's cores and
// below the extra NICs'.
func newStorage(h *Host, i int, spec StorageSpec) (*storage, error) {
	mode := h.cfg.Mode
	if spec.Mode != nil {
		mode = *spec.Mode
	}
	s := &storage{
		h:        h,
		name:     fmt.Sprintf("storage%d", i),
		cpu:      h.cfg.Cores + h.cfg.TxFlows + 1 + i,
		interval: sim.Duration(float64(blockBytes) / spec.ReadGBps),
		link:     h.newLink(),
	}
	dom, err := h.newDomain(core.Config{Mode: mode, NumCPUs: 1}, 1000+int64(i))
	if err != nil {
		return nil, fmt.Errorf("host: %s: %w", s.name, err)
	}
	s.dom = dom
	s.faults = h.inj.Device(dom)
	s.issueFn, s.submitFn, s.completeFn = s.issue, s.submit, s.complete
	s.mapFn, s.unmapFn = s.mapBlock, s.unmapBlock
	return s, nil
}

func (s *storage) Name() string         { return s.name }
func (s *storage) Kind() string         { return "storage" }
func (s *storage) Domain() *core.Domain { return s.dom }

// Stats counts completed blocks and the bytes they read.
func (s *storage) Stats() DeviceStats {
	return DeviceStats{Ops: s.blocks, Bytes: s.blocks * blockBytes}
}

// start begins the periodic block stream.
func (s *storage) start() { s.h.eng.After(s.interval, s.issueFn) }

// issue starts one block — the storage driver's strict-safety datapath,
// sharing every IOMMU structure with the other devices: the host core
// maps it, the device translates and DMAs it, and the core unmaps it on
// completion. The next block is due one interval later.
func (s *storage) issue() {
	s.h.core(s.cpu).Do(s.mapFn, s.submitFn)
	s.h.eng.After(s.interval, s.issueFn)
}

// mapBlock is a block's map work on the host core.
func (s *storage) mapBlock() sim.Duration {
	m, cost, err := s.dom.MapTx(0, blockPages)
	if err != nil {
		panic(fmt.Sprintf("host: storage MapTx: %v", err))
	}
	s.mapped.Push(m)
	return cost
}

// submit translates the oldest mapped block and hands its DMA to the
// link.
func (s *storage) submit() {
	m := s.mapped.Pop()
	s.submitted.Push(m)
	reads := 0
	if s.dom.Mode().Translated() {
		s.faults.Observe(m.IOVAs[0])
		// One run of 512B transactions per page: eight, or what the
		// block's tail leaves on its last page.
		for off := 0; off < blockBytes; off += ptable.PageSize {
			n := (min(ptable.PageSize, blockBytes-off) + 511) / 512
			reads += s.dom.TranslateRun(m.IOVAs[off/ptable.PageSize], n, 512)
		}
		reads += s.faults.MaybeMisbehave()
	}
	s.link.Submit(blockBytes, reads, s.completeFn)
}

// complete counts the oldest DMA in flight and queues its unmap.
func (s *storage) complete() {
	s.blocks++
	s.h.core(s.cpu).Do(s.unmapFn, nil)
}

// unmapBlock is the unmap work of the oldest completed block.
func (s *storage) unmapBlock() sim.Duration {
	cost, err := s.dom.UnmapTx(s.submitted.Pop())
	if err != nil {
		panic(fmt.Sprintf("host: storage UnmapTx: %v", err))
	}
	return cost
}
