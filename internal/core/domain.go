package core

import (
	"fmt"
	"math/rand"
	"strings"

	"fastsafe/internal/ats"
	"fastsafe/internal/fault"
	"fastsafe/internal/iommu"
	"fastsafe/internal/iova"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// The CPU time charged for each driver-side protection operation. The
// values matter relative to the per-packet network-stack cost: strict
// mode submits one invalidation request per page and waits for
// completion [39], F&S submits one per descriptor (§3, Figure 6). They
// are calibrated so that, with the per-packet stack cost in
// internal/host, five cores saturate 100Gbps with the IOMMU off (as in
// §2.2's setup) while strict-mode per-page operations add visible but
// non-bottleneck CPU load — matching the paper's observation that CPU
// was far from saturated when the IOMMU throttled throughput.
const (
	costCacheAlloc sim.Duration = 25  // IOVA alloc/free served by a magazine
	costTreeAlloc  sim.Duration = 400 // IOVA alloc/free hitting the red-black tree
	// costTreeNodeVisit is charged per tree node touched while searching
	// for a gap — the worst-case linear scans Peleg et al. [39] measured.
	costTreeNodeVisit sim.Duration = 15
	costMapPage       sim.Duration = 60 // installing one 4KB page-table entry
	costUnmapPage     sim.Duration = 60 // clearing one 4KB page-table entry
	// costInvRequest is submitting one invalidation request and waiting
	// for the IOMMU to complete it.
	costInvRequest sim.Duration = 250
	// costATCInvRequest is the additional completion latency of the ATC-
	// invalidate message class: the shootdown round-trips over PCIe to
	// the device and back before the invalidation completes. Charged only
	// when the domain has a device-side ATS cache attached.
	costATCInvRequest sim.Duration = 450
	// costCapGrant and costCapRevoke are the capability family's per-page
	// costs: installing (or overwriting) one entry in the per-domain
	// capability table, and killing one. Both are O(1) table updates with
	// no invalidation-queue round trip — that asymmetry against
	// costInvRequest is the whole point of the CAPIO-style design.
	costCapGrant  sim.Duration = 90
	costCapRevoke sim.Duration = 90
)

// Config configures a protection Domain.
type Config struct {
	Mode            Mode
	NumCPUs         int // per-CPU IOVA caches and Tx chunks
	DescriptorPages int // pages per Rx descriptor (64 on CX-5)
	DeferredLimit   int // deferred mode: pending unmaps before a domain flush (Linux: 256)
	// TxFreeCPUShift models Tx-completion interrupt steering: Tx buffers
	// are unmapped (and their IOVAs freed) on a core offset from the one
	// that allocated them. This is the cross-CPU magazine migration that
	// degrades IOVA locality over time (§2.2, citing [32]). 0 disables.
	TxFreeCPUShift int
	// FreePoolSize models out-of-order application buffer consumption:
	// unmapped IOVAs enter a bounded pool and are released to the
	// allocator in random order, interleaving descriptors and cores the
	// way real page consumption does. This is the "poor locality between
	// allocated IOVAs" root cause of §2.2 — without it, the simulator's
	// recycling is unrealistically tidy. 0 disables (frees are
	// immediate); the host wiring enables it for realism.
	FreePoolSize int
	// Seed drives the free pool's deterministic shuffle.
	Seed  int64
	IOMMU iommu.Config // cache geometry (ignored when SharedIOMMU is set)
	// SharedIOMMU attaches this domain to an existing IOMMU instead of
	// creating a private one: the domain gets its own IOVA space and IO
	// page table but shares the IOTLB, page-table caches and walkers —
	// how multiple devices coexist on one root complex.
	SharedIOMMU *iommu.IOMMU
	// DefaultDomain, with SharedIOMMU set, attaches as the IOMMU's
	// pre-existing default domain 0 instead of creating a fresh one. The
	// host gives the primary device domain 0 so a host-owned IOMMU is
	// indistinguishable (same domain tags, same cache indexing) from the
	// legacy layout where the primary device's domain created the IOMMU.
	DefaultDomain bool
	TraceL3       bool // record PTcache-L3 reuse-distance trace at allocation
	TraceLimit    int  // max trace points (0 = unlimited)
	// Faults, when non-nil, injects invalidation-queue and allocator
	// faults into this domain's datapaths (see internal/fault). Nil — the
	// default — leaves every datapath byte-identical to the pre-fault
	// code: all fault hooks sit behind nil checks and consume no
	// randomness.
	Faults *fault.Injector
	// ATS, with Entries > 0, fronts the domain's translations with a
	// device-side ATS translation cache (see internal/ats): DMAs
	// translate through the device TLB, invalidations send an extra
	// ATC-invalidate message (costATCInvRequest), and misses pay an
	// ATS request with PRI fallback. Zero Entries — the default —
	// routes straight to the IOMMU, byte-identical to the pre-seam code.
	ATS ats.Config
}

func (c Config) withDefaults() Config {
	if c.NumCPUs <= 0 {
		c.NumCPUs = 1
	}
	if c.DescriptorPages <= 0 {
		c.DescriptorPages = 64
	}
	if c.DeferredLimit <= 0 {
		c.DeferredLimit = 256
	}
	return c
}

// Descriptor is a prepared Rx descriptor: page-sized IOVAs in the order
// the NIC will DMA into them.
type Descriptor struct {
	IOVAs []ptable.IOVA
	cpu   int
	// FNSHuge: the 2MB chunk this descriptor was carved from
	huge *hugeChunk
	// pol is the policy that mapped this descriptor. Unmap and remap
	// follow it, so a descriptor in flight across a runtime mode switch
	// completes under the rules that laid it out.
	pol *Policy
}

// TxMapping is a mapped Tx packet: one IOVA per page. The domain owns
// the record. It is live from MapTx until UnmapTx succeeds; after that
// the mapping is dead, and the domain hands the record to a later MapTx.
// A caller keeps neither the pointer nor IOVAs past a successful UnmapTx
// and copies any IOVA it still needs before the call.
type TxMapping struct {
	IOVAs []ptable.IOVA
	cpu   int
	// chunk slots used (contig and huge layouts), one per IOVA
	chunks []*txChunk
	// pol is the policy that mapped this packet (see Descriptor.pol);
	// nil once UnmapTx has released the record.
	pol *Policy
}

// txChunk is a per-CPU descriptor-sized IOVA chunk filled across Tx
// packets (§3's Tx generalisation).
type txChunk struct {
	base     ptable.IOVA
	pages    int
	next     int // next unmapped slot
	released int // slots unmapped so far
}

// Counters aggregates driver-side work.
type Counters struct {
	RxDescriptorsMapped   int64
	RxDescriptorsUnmapped int64
	TxPacketsMapped       int64
	TxPacketsUnmapped     int64
	PagesMapped           int64
	PagesUnmapped         int64
	IOVAAllocs            int64
	IOVAFrees             int64
	InvRequests           int64
	DeferredFlushes       int64
	Reclaims              int64
	CPUTime               sim.Duration // total protection CPU time charged
}

// Domain is a protection domain: the coupling of an IOMMU, an IOVA
// allocator and a protection-mode datapath.
type Domain struct {
	cfg   Config
	knobs Knobs
	pol   *Policy
	mmu   *iommu.IOMMU
	domID iommu.DomainID
	table *ptable.Table
	alloc *iova.CachedAllocator
	c     Counters

	// trans is the translation seam: the direct IOMMU path, or an
	// ats.Cache wrapping it when Config.ATS is enabled.
	trans iommu.Translator
	atc   *ats.Cache // non-nil iff ATS is enabled

	physNext uint64 // bump allocator for distinct fake physical pages

	txChunks []*txChunk   // per CPU
	txPool   []*txPool    // per CPU, persistent mode
	hugeRx   []*hugeChunk // per CPU, FNSHuge mode
	// Tx records and chunks UnmapTx released, reused last in first out
	// (see TxMapping).
	freeTx     []*TxMapping
	freeChunks []*txChunk

	batch batch // deferred and cap-lazyrevoke revocations (see policy.go)
	// caps is the capability family's per-domain grant table registered
	// with the IOMMU (see cap.go); nil in page-table domains
	caps *iommu.CapTable
	// persistent mode descriptor pool, per CPU
	pool [][]*Descriptor
	// out-of-order consumption pool (see Config.FreePoolSize)
	freePool []pendingFree
	rng      *rand.Rand

	trace *stats.ReuseTrace
}

type pendingFree struct {
	base  ptable.IOVA
	pages int
	cpu   int
}

// NewDomain builds a protection domain. A mode with no registered
// policy is a construction-time error — the datapaths carry no
// "unhandled mode" branches.
func NewDomain(cfg Config) (*Domain, error) {
	cfg = cfg.withDefaults()
	pol, ok := PolicyFor(cfg.Mode)
	if !ok {
		return nil, fmt.Errorf("core: mode %v has no registered policy (valid: %s)",
			cfg.Mode, strings.Join(ValidModeNames(), ", "))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	mmu := cfg.SharedIOMMU
	var domID iommu.DomainID
	if mmu == nil {
		mmu = iommu.New(cfg.IOMMU)
	} else if !cfg.DefaultDomain {
		domID = mmu.CreateDomain()
	}
	d := &Domain{
		cfg:      cfg,
		knobs:    Knobs{Mode: cfg.Mode, DeferredLimit: cfg.DeferredLimit, FlushInterval: DefaultFlushInterval},
		pol:      pol,
		mmu:      mmu,
		domID:    domID,
		table:    mmu.TableOf(domID),
		alloc:    iova.NewCached(cfg.NumCPUs),
		txChunks: make([]*txChunk, cfg.NumCPUs),
		hugeRx:   make([]*hugeChunk, cfg.NumCPUs),
		pool:     make([][]*Descriptor, cfg.NumCPUs),
		// Fake physical pages: distinct per domain so cross-domain tests
		// can verify isolation by comparing resolved addresses.
		physNext: 1<<30 + uint64(domID)<<40,
		rng:      rand.New(rand.NewSource(seed)),
	}
	d.trans = mmu.TranslatorOf(domID)
	if capabilityMode(cfg.Mode) {
		// Capability domains validate DMAs against the grant table, not
		// the walked page tables, so a device-side ATS cache would hold
		// translations no revocation could reach. The family forbids it.
		d.caps = mmu.AttachCapTable(domID)
	} else if cfg.ATS.Entries > 0 {
		d.atc = ats.New(mmu, domID, d.trans, cfg.ATS)
		d.trans = d.atc
	}
	if cfg.TraceL3 {
		d.trace = stats.NewReuseTrace(cfg.TraceLimit)
	}
	if cfg.Faults != nil {
		// Forced rcache flushes (allocator pressure) target every domain
		// attached to the plan.
		cfg.Faults.AttachFlusher(d.alloc.FlushRCaches)
	}
	return d, nil
}

// Mode returns the domain's current protection mode (live: a runtime
// knob switch changes it).
func (d *Domain) Mode() Mode { return d.knobs.Mode }

// DescriptorPages returns the configured pages per Rx descriptor.
func (d *Domain) DescriptorPages() int { return d.cfg.DescriptorPages }

// ID returns the domain's identifier within the IOMMU.
func (d *Domain) ID() iommu.DomainID { return d.domID }

// Translate performs one PCIe-transaction translation in this domain,
// through the device's ATS cache when one is attached.
func (d *Domain) Translate(v ptable.IOVA) iommu.Translation {
	return d.trans.Translate(v)
}

// TranslateRun performs n translations stride bytes apart inside v's
// page (see iommu.Translator) and returns the page-table reads they
// cost.
func (d *Domain) TranslateRun(v ptable.IOVA, n, stride int) int {
	return d.trans.TranslateRun(v, n, stride)
}

// ATC returns the domain's device-side ATS cache (nil when disabled).
func (d *Domain) ATC() *ats.Cache { return d.atc }

// Counters returns driver-side counters.
func (d *Domain) Counters() Counters { return d.c }

// AllocatorStats returns the IOVA allocator counters.
func (d *Domain) AllocatorStats() iova.Stats { return d.alloc.Stats() }

// Trace returns the PTcache-L3 reuse-distance trace (nil unless TraceL3).
func (d *Domain) Trace() *stats.ReuseTrace { return d.trace }

func (d *Domain) newPhys() ptable.Phys {
	p := ptable.Phys(d.physNext << ptable.PageShift)
	d.physNext++
	return p
}

// allocIOVA allocates a range and returns its base plus the CPU cost,
// recording the locality trace per 4KB page in NIC access order.
func (d *Domain) allocIOVA(cpu, pages int) (ptable.IOVA, sim.Duration, error) {
	var fcost sim.Duration
	if inj := d.cfg.Faults; inj != nil && inj.FailAlloc(d.domID) {
		// Transient allocator failure: the driver backs off and retries
		// through the slow tree path before succeeding below.
		fcost = costTreeAlloc
	}
	before := d.alloc.Stats()
	base, ok := d.alloc.Alloc(cpu, pages)
	if !ok {
		return 0, 0, fmt.Errorf("core: IOVA space exhausted (%d pages)", pages)
	}
	after := d.alloc.Stats()
	cost := costCacheAlloc
	if after.TreeAllocs > before.TreeAllocs {
		cost = costTreeAlloc +
			costTreeNodeVisit*sim.Duration(after.NodesVisited-before.NodesVisited)
	}
	d.c.IOVAAllocs++
	return base, cost + fcost, nil
}

// invalidate submits one invalidation-queue request covering
// [base, base+pages*4KB) and models the driver waiting for its
// completion, including injected faults: a delayed completion stalls the
// driver, a lost one stalls until the driver's timeout fires and the
// request is resubmitted. The cache effects are applied regardless — a
// lost *completion* does not un-invalidate anything — so every mode that
// waits for completion stays safe and the injection surfaces only as
// extra CPU time plus a benign retry in the audit report.
func (d *Domain) invalidate(base ptable.IOVA, pages int, iotlbOnly bool) sim.Duration {
	d.trans.Invalidate(base, pages, iotlbOnly)
	cost := d.invRequestCost()
	d.c.InvRequests++
	if inj := d.cfg.Faults; inj != nil {
		cost += inj.DelayInv(d.domID)
		if inj.DropInv(d.domID) {
			d.trans.Invalidate(base, pages, iotlbOnly)
			cost += inj.Plan().InvTimeout + d.invRequestCost()
			d.c.InvRequests++
		}
	}
	return cost
}

// invRequestCost is the completion wait per invalidation-queue request:
// the base request, plus the ATC-invalidate message round trip when the
// domain's device caches translations.
func (d *Domain) invRequestCost() sim.Duration {
	cost := costInvRequest
	if d.atc != nil {
		cost += costATCInvRequest
	}
	return cost
}

// flushInvalidate is invalidate's analogue for the deferred-mode flush
// (one domain-selective invalidation-queue request).
func (d *Domain) flushInvalidate() sim.Duration {
	d.trans.InvalidateAll()
	cost := d.invRequestCost()
	d.c.InvRequests++
	if inj := d.cfg.Faults; inj != nil {
		cost += inj.DelayInv(d.domID)
		if inj.DropInv(d.domID) {
			d.trans.InvalidateAll()
			cost += inj.Plan().InvTimeout + d.invRequestCost()
			d.c.InvRequests++
		}
	}
	return cost
}

// freeIOVA releases a range back to the allocator. With a free pool
// configured, the release is deferred and reordered: the range joins the
// pool and a random pooled range is released instead once the pool is
// full — modelling application threads consuming (and thus releasing)
// buffers out of descriptor order.
func (d *Domain) freeIOVA(cpu int, base ptable.IOVA, pages int) sim.Duration {
	if d.cfg.FreePoolSize > 0 {
		d.freePool = append(d.freePool, pendingFree{base, pages, cpu})
		if len(d.freePool) <= d.cfg.FreePoolSize {
			return costCacheAlloc
		}
		i := d.rng.Intn(len(d.freePool))
		p := d.freePool[i]
		d.freePool[i] = d.freePool[len(d.freePool)-1]
		d.freePool = d.freePool[:len(d.freePool)-1]
		base, pages, cpu = p.base, p.pages, p.cpu
	}
	d.alloc.Free(cpu, base, pages)
	d.c.IOVAFrees++
	return costCacheAlloc
}

// txFreeCPU returns the core a Tx completion's IOVA frees on.
func (d *Domain) txFreeCPU(cpu int) int {
	if d.cfg.TxFreeCPUShift == 0 {
		return cpu
	}
	return (cpu + d.cfg.TxFreeCPUShift) % d.cfg.NumCPUs
}

// traceAccess records the PTcache-L3 key of an allocated page-sized IOVA.
func (d *Domain) traceAccess(v ptable.IOVA) {
	if d.trace != nil {
		d.trace.Access(v.L3Key())
	}
}

// PendingDeferred reports unmapped-but-not-invalidated pages (deferred
// mode's unsafe window) — or, for cap-lazyrevoke, unmapped-but-not-
// revoked pages (the capability analogue).
func (d *Domain) PendingDeferred() int { return d.batch.pages }

// FlushDeferred forces the batch flush regardless of the pending count
// — the timer path of Linux's lazy mode, reused by cap-lazyrevoke for
// the revocation batch. It runs whatever the current mode (after a mode
// switch, in-flight mappings of a batching mode still queue into the
// batch), so it is a no-op exactly when nothing is pending. Returns the
// CPU cost, already charged to the domain.
func (d *Domain) FlushDeferred() sim.Duration {
	cost := d.flush()
	d.c.CPUTime += cost
	return cost
}

// MapPersistentPages maps pages 4KB pages that live for the domain's whole
// lifetime, as dma_alloc_coherent does for descriptor rings: mapped once
// at driver init and never unmapped, in every protection mode. In Off mode
// the returned IOVAs are physical identities.
func (d *Domain) MapPersistentPages(cpu, pages int) ([]ptable.IOVA, error) {
	out := make([]ptable.IOVA, 0, pages)
	if d.knobs.Mode == Off {
		for i := 0; i < pages; i++ {
			out = append(out, ptable.IOVA(d.newPhys()))
		}
		return out, nil
	}
	base, _, err := d.allocIOVA(cpu, pages)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pages; i++ {
		v := base + ptable.IOVA(i*ptable.PageSize)
		p := d.newPhys()
		if err := d.table.Map(v, p); err != nil {
			return nil, err
		}
		if d.caps != nil {
			// Capability domains reach persistent pages (descriptor
			// rings) through standing grants installed at driver init.
			d.caps.Grant(v, p)
		}
		out = append(out, v)
	}
	return out, nil
}
