package device

import (
	"fmt"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// blockBytes is a storage DMA's block size.
const blockBytes = 128 << 10

// Storage is an NVMe-style storage controller: it starts 128KB block
// read DMAs at a fixed rate through its own PCIe link, with translations
// through the host's shared IOMMU — same IOTLB, same page-table caches,
// same walkers as every other attached device. Its block DMAs are mapped
// and unmapped through its domain's protection mode, so under strict mode
// its per-block invalidations pollute the caches the network datapath
// depends on — the cross-device interference production deployments
// observe (the "violation of isolation guarantees" motivation in §1).
// Under F&S the storage traffic uses contiguous chunks and IOTLB-only
// invalidations, so the pollution collapses.
type Storage struct {
	cfg      StorageConfig
	h        Host
	dom      *core.Domain // own protection domain, shared IOMMU
	link     *pcie.Link
	faults   *fault.Device
	interval sim.Duration
	pages    int // pages per block
	blocks   int64
	bytes    int64

	// Blocks mapped and not yet submitted, and submitted and not yet
	// unmapped, each oldest first. The host core runs work FIFO and the
	// link completes DMAs FIFO, so the submit, and later the unmap,
	// always takes the oldest block of its queue.
	mapped, submitted sim.FIFO[*core.TxMapping]
	// The stages of a block, bound once in Attach so a block allocates
	// nothing.
	issueFn, submitFn, completeFn func()
	mapFn, unmapFn                func() sim.Duration
}

// StorageConfig configures one storage device. The host chooses CPU and
// SeedOffset when it attaches the device.
type StorageConfig struct {
	Name       string
	ReadGBps   float64   // target block-read bandwidth (decimal GB/s)
	Mode       core.Mode // protection mode of the device's domain
	CPU        int       // host core the driver work runs on
	SeedOffset int64     // domain seed offset from the host seed
}

// NewStorage builds a storage device; Attach wires it to a host.
func NewStorage(cfg StorageConfig) *Storage {
	if cfg.Name == "" {
		cfg.Name = "storage"
	}
	return &Storage{
		cfg:      cfg,
		interval: sim.Duration(float64(blockBytes) / cfg.ReadGBps),
		pages:    (blockBytes + ptable.PageSize - 1) / ptable.PageSize,
	}
}

// Name implements Device.
func (s *Storage) Name() string { return s.cfg.Name }

// Kind implements Device.
func (s *Storage) Kind() string { return "storage" }

// Domain implements Device.
func (s *Storage) Domain() *core.Domain { return s.dom }

// Stats implements Device.
func (s *Storage) Stats() Stats { return Stats{Ops: s.blocks, Bytes: s.bytes} }

// Blocks returns completed block DMAs.
func (s *Storage) Blocks() int64 { return s.blocks }

// Attach implements Device: own link, own domain, shared IOMMU.
func (s *Storage) Attach(h Host) error {
	if s.cfg.ReadGBps <= 0 {
		return fmt.Errorf("device: storage %s: ReadGBps must be positive, got %g",
			s.cfg.Name, s.cfg.ReadGBps)
	}
	s.h = h
	s.link = h.NewLink()
	dom, err := h.NewDomain(core.Config{
		Mode:    s.cfg.Mode,
		NumCPUs: 1,
	}, s.cfg.SeedOffset)
	if err != nil {
		return fmt.Errorf("device: storage %s: %w", s.cfg.Name, err)
	}
	s.dom = dom
	s.faults = h.Faults().Device(s.dom)
	s.issueFn, s.submitFn, s.completeFn = s.issue, s.submit, s.complete
	s.mapFn, s.unmapFn = s.mapBlock, s.unmapBlock
	return nil
}

// Start begins the periodic block stream.
func (s *Storage) Start() {
	s.h.Engine().After(s.interval, s.issueFn)
}

// issue starts one block — the storage driver's strict-safety datapath,
// sharing every IOMMU structure with the other devices: the host core
// maps it, the device translates and DMAs it, and the core unmaps it on
// completion. The next block is due one interval later.
func (s *Storage) issue() {
	s.h.Exec(s.cfg.CPU, s.mapFn, s.submitFn)
	s.h.Engine().After(s.interval, s.issueFn)
}

// mapBlock is a block's map work on the host core.
func (s *Storage) mapBlock() sim.Duration {
	m, cost, err := s.dom.MapTx(0, s.pages)
	if err != nil {
		panic(fmt.Sprintf("device: storage MapTx: %v", err))
	}
	s.mapped.Push(m)
	return cost
}

// submit translates the oldest mapped block and hands its DMA to the
// link.
func (s *Storage) submit() {
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
func (s *Storage) complete() {
	s.blocks++
	s.bytes += int64(blockBytes)
	s.h.Exec(s.cfg.CPU, s.unmapFn, nil)
}

// unmapBlock is the unmap work of the oldest completed block.
func (s *Storage) unmapBlock() sim.Duration {
	cost, err := s.dom.UnmapTx(s.submitted.Pop())
	if err != nil {
		panic(fmt.Sprintf("device: storage UnmapTx: %v", err))
	}
	return cost
}
