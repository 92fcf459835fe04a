package iommu

import "fastsafe/internal/ptable"

// Config sizes the IOMMU caches. Zero fields take defaults.
//
// Intel does not publish the IO page-table cache sizes; the paper's
// footnote 3 estimates 64–128 entries for PTcache-L3 from measurements,
// and §4.1's working-set arithmetic assumes 32 entries for PTcache-L1/L2.
// The defaults here (L1/L2 = 32, L3 = 32) are calibrated so the simulated
// Linux-strict miss rates land on the paper's measured values.
type Config struct {
	IOTLBSets int // number of IOTLB sets (default 16)
	IOTLBWays int // associativity (default 4; 16x4 = 64 entries)
	L1Size    int // PTcache-L1 entries (default 32)
	L2Size    int // PTcache-L2 entries (default 32)
	L3Size    int // PTcache-L3 entries (default 32)
}

func (c Config) withDefaults() Config {
	if c.IOTLBSets == 0 {
		c.IOTLBSets = 16
	}
	if c.IOTLBWays == 0 {
		c.IOTLBWays = 4
	}
	if c.L1Size == 0 {
		c.L1Size = 32
	}
	if c.L2Size == 0 {
		c.L2Size = 32
	}
	if c.L3Size == 0 {
		c.L3Size = 32
	}
	return c
}

// Counters is the simulator's analogue of the PCM counters the paper
// samples. Miss counters follow the paper's accounting (§2.2): L3Misses
// counts walks where PTcache-L3 missed; L2Misses counts walks where both
// PTcache-L2 and L3 missed; L1Misses counts walks where all three levels
// missed. MemReads is then IOTLBMisses + L3Misses + L2Misses + L1Misses.
type Counters struct {
	Translations int64
	IOTLBHits    int64
	IOTLBMisses  int64
	Walks        int64
	MemReads     int64
	L3Misses     int64
	L2Misses     int64
	L1Misses     int64
	Faults       int64 // translation failed: no mapping and no cached entry

	// Safety accounting. StaleIOTLBUses counts translations served from an
	// IOTLB entry whose mapping has been unmapped (possible only in
	// deferred-style modes). StalePTUses counts walks that consulted a
	// PTcache entry pointing to a reclaimed page-table page (must be zero
	// in every mode — F&S invalidates on reclamation precisely for this).
	StaleIOTLBUses int64
	StalePTUses    int64

	InvRequests      int64 // invalidation-queue requests submitted
	IOTLBInvalidated int64 // IOTLB entries actually removed
	PTInvalidated    int64 // PTcache entries actually removed

	// PCIe ATS accounting. ATSRequests counts translation requests the
	// device's ATC sent to the IOMMU's translation agent (one per ATC
	// miss). ATCInvRequests counts ATC-invalidate messages on the
	// invalidation queue (a distinct message class from IOTLB/PTcache
	// invalidations); ATCInvalidated counts the device-TLB entries they
	// removed. All three stay zero when no device has an ATC.
	ATSRequests    int64
	ATCInvRequests int64
	ATCInvalidated int64

	// Capability-family accounting. CapChecks counts DMA validations
	// against a per-domain capability table (each replaces an IOTLB
	// lookup + walk); CapRevocations counts grants killed — by explicit
	// revoke or by an overwriting re-grant; CapDenied counts DMAs
	// blocked because no capability covered the address. All three stay
	// zero outside the cap/cap-lazyrevoke modes.
	CapChecks      int64
	CapRevocations int64
	CapDenied      int64
}

// DomainID names one protection domain: one device's IOVA space and IO
// page table. All domains share the IOMMU's caches and walkers — entries
// are tagged by domain, exactly as VT-d tags IOTLB/PTcache entries with
// the domain identifier — so devices contend for capacity but can never
// use each other's translations.
type DomainID uint32

// domain is one protection domain's record: its IO page table, its
// capability table when it has one, and the counters its device caused.
// Every counting site bumps the originating domain's record, so the
// per-device breakdown is exact by construction.
type domain struct {
	table *ptable.Table
	// cap routes the domain's translations when set: its DMAs validate
	// against the table and never touch the caches or walkers. Grants are
	// driver state — a flush keeps them.
	cap *CapTable
	c   Counters
}

// IOMMU couples the shared translation caches with per-domain IO page
// tables.
type IOMMU struct {
	doms  []*domain // indexed by DomainID
	iotlb setAssoc
	l1    lru // (domain, L1Key) -> PT-L2 page id
	l2    lru // (domain, L2Key) -> PT-L3 page id
	l3    lru // (domain, L3Key) -> PT-L4 page id
	// audit, when set, observes every completed translation after the
	// counters are charged. The hook must not mutate IOMMU or table
	// state — it is a ground-truth check, not part of the pipeline.
	audit func(DomainID, ptable.IOVA, Translation)
}

// SetAuditHook installs fn to observe every translated transaction,
// each of a run's included (nil uninstalls). The fault layer's safety auditor uses this to cross-check
// translations against the live page table.
func (m *IOMMU) SetAuditHook(fn func(DomainID, ptable.IOVA, Translation)) {
	m.audit = fn
}

// New returns an IOMMU with a single default domain (id 0).
func New(cfg Config) *IOMMU {
	cfg = cfg.withDefaults()
	m := &IOMMU{
		iotlb: newSetAssoc(cfg.IOTLBSets, cfg.IOTLBWays),
		l1:    newLRU(cfg.L1Size),
		l2:    newLRU(cfg.L2Size),
		l3:    newLRU(cfg.L3Size),
	}
	m.CreateDomain()
	return m
}

// CreateDomain allocates a fresh protection domain with its own IO page
// table (one per device, as the kernel does for non-virtualised hosts).
func (m *IOMMU) CreateDomain() DomainID {
	m.doms = append(m.doms, &domain{table: ptable.New()})
	return DomainID(len(m.doms) - 1)
}

// domainOf returns d's record, nil for an id CreateDomain never returned.
func (m *IOMMU) domainOf(d DomainID) *domain {
	if int(d) < len(m.doms) {
		return m.doms[d]
	}
	return nil
}

// TableOf exposes a domain's IO page table.
func (m *IOMMU) TableOf(d DomainID) *ptable.Table {
	if dom := m.domainOf(d); dom != nil {
		return dom.table
	}
	return nil
}

// domKey namespaces a cache key by domain: every key fits in 44 bits
// (page numbers are at most 2^36), leaving the domain tag and the
// huge-entry bit disjoint.
func domKey(d DomainID, key uint64) uint64 { return uint64(d)<<44 | key }

// keyDomain reads the domain tag back out of a domKey.
func keyDomain(key uint64) DomainID { return DomainID((key &^ hugeTag) >> 44) }

// Counters returns a snapshot of the hardware counters: the sum of every
// domain's.
func (m *IOMMU) Counters() Counters {
	var sum Counters
	for _, dom := range m.doms {
		sum.add(&dom.c)
	}
	return sum
}

// add accumulates o into c, field by field.
func (c *Counters) add(o *Counters) {
	c.Translations += o.Translations
	c.IOTLBHits += o.IOTLBHits
	c.IOTLBMisses += o.IOTLBMisses
	c.Walks += o.Walks
	c.MemReads += o.MemReads
	c.L3Misses += o.L3Misses
	c.L2Misses += o.L2Misses
	c.L1Misses += o.L1Misses
	c.Faults += o.Faults
	c.StaleIOTLBUses += o.StaleIOTLBUses
	c.StalePTUses += o.StalePTUses
	c.InvRequests += o.InvRequests
	c.IOTLBInvalidated += o.IOTLBInvalidated
	c.PTInvalidated += o.PTInvalidated
	c.ATSRequests += o.ATSRequests
	c.ATCInvRequests += o.ATCInvRequests
	c.ATCInvalidated += o.ATCInvalidated
	c.CapChecks += o.CapChecks
	c.CapRevocations += o.CapRevocations
	c.CapDenied += o.CapDenied
}

// CountersOf returns the slice of the hardware counters attributable to
// domain d: the translations, walks, reads, invalidations and safety
// events d's device caused. Counters is their sum over Domains (the
// device layer's per-device breakdown relies on this).
func (m *IOMMU) CountersOf(d DomainID) Counters {
	if dom := m.domainOf(d); dom != nil {
		return dom.c
	}
	return Counters{}
}

// ChargeATSRequest accounts one ATS translation request from domain d's
// device (the ATC-miss round trip to the translation agent). The request
// itself is charged here; the walk it triggers is charged by TranslateIn
// as usual.
func (m *IOMMU) ChargeATSRequest(d DomainID) { m.doms[d].c.ATSRequests++ }

// ChargeATCInvalidation accounts one ATC-invalidate message sent to
// domain d's device, which removed `dropped` device-TLB entries.
func (m *IOMMU) ChargeATCInvalidation(d DomainID, dropped int64) {
	c := &m.doms[d].c
	c.ATCInvRequests++
	c.ATCInvalidated += dropped
}

// hugeTag distinguishes 2MB-entry IOTLB keys from 4KB-entry keys: real
// IOTLBs tag entries with their page size and look both up associatively.
const hugeTag = uint64(1) << 63

func hugeKey(v ptable.IOVA) uint64 { return v.L3Key() | hugeTag }

// TranslateIn performs the address translation for one PCIe transaction
// from domain d targeting v, updating caches and counters exactly as the
// hardware pipeline in §2.1 step 3: IOTLB lookup, then a page-table walk
// that first probes the three page-table caches (in parallel) and starts
// the walk at the deepest level that hits.
func (m *IOMMU) TranslateIn(d DomainID, v ptable.IOVA) Translation {
	t, _ := m.TranslateLeafIn(d, v)
	return t
}

// TranslateLeafIn is TranslateIn that also hands over the page-table
// leaf behind the translation, found on the way: the 4KB leaf a hit's
// check looked up, or the leaf a walk ended at. The leaf is live and is
// where a walk for v ends now when t is OK, not Stale and not from a
// capability table; otherwise it is the zero Leaf. A device-side cache
// filling from t keeps the leaf without walking again.
func (m *IOMMU) TranslateLeafIn(d DomainID, v ptable.IOVA) (Translation, ptable.Leaf) {
	t, leaf := m.translateIn(d, m.doms[d], v)
	if m.audit != nil {
		m.audit(d, v, t)
	}
	return t, leaf
}

func (m *IOMMU) translateIn(d DomainID, dom *domain, v ptable.IOVA) (Translation, ptable.Leaf) {
	// Capability domains bypass the walk pipeline entirely: one O(1)
	// table check, no cache state, no memory reads.
	if dom.cap != nil {
		return dom.cap.check(v), ptable.Leaf{}
	}
	table, c := dom.table, &dom.c
	c.Translations++
	pn := domKey(d, v.PageNumber())
	if val, ok := m.iotlb.get(pn); ok {
		c.IOTLBHits++
		// A hit for an unmapped IOVA means the device retained access
		// after unmap — the deferred-mode safety hole.
		w, mapped := table.Lookup(v)
		if !mapped {
			c.StaleIOTLBUses++
		}
		return Hit(ptable.Phys(val), ByIOTLB, !mapped), w.Leaf
	}
	if val, ok := m.iotlb.get(domKey(d, hugeKey(v))); ok {
		// A 2MB IOTLB entry covers this address.
		c.IOTLBHits++
		phys := ptable.Phys(val + uint64(v)%ptable.HugeSize)
		if w, huge, mapped := table.LookupHugeAware(v); mapped && huge {
			return Hit(phys, ByIOTLBHuge, false), w.Leaf
		}
		c.StaleIOTLBUses++
		return Hit(phys, ByIOTLBHuge, true), ptable.Leaf{}
	}
	c.IOTLBMisses++
	c.Walks++

	// Huge-leaf walk: the PT-L3 entry is the leaf, so PTcache-L3 is not
	// involved — best case (PTcache-L2 hit) is one read of the leaf.
	w, huge, mapped := table.LookupHugeAware(v)
	if mapped && huge {
		_, l2hit := m.l2.get(domKey(d, v.L2Key()))
		_, l1hit := m.l1.get(domKey(d, v.L1Key()))
		reads, by := 0, ByWalkL2
		switch {
		case l2hit:
			reads = 1
		case l1hit:
			reads, by = 2, ByWalkL1
			c.L2Misses++
		default:
			reads, by = 3, ByWalkMem
			c.L2Misses++
			c.L1Misses++
		}
		c.MemReads += int64(reads)
		m.l1.put(domKey(d, v.L1Key()), w.PageID[1])
		m.l2.put(domKey(d, v.L2Key()), w.PageID[2])
		m.iotlb.put(domKey(d, hugeKey(v)), uint64(w.Phys)-uint64(v)%ptable.HugeSize)
		return walked(w.Phys, by, reads), w.Leaf
	}

	// Probe the page-table caches. Hardware probes all three in parallel;
	// the deepest hit determines how many page-table reads remain.
	l3id, l3hit := m.l3.get(domKey(d, v.L3Key()))
	l2id, l2hit := m.l2.get(domKey(d, v.L2Key()))
	l1id, l1hit := m.l1.get(domKey(d, v.L1Key()))

	reads, by := 0, ByWalkL3
	switch {
	case l3hit:
		reads = 1 // read the PT-L4 entry only
	case l2hit:
		reads, by = 2, ByWalkL2 // PT-L4 page address from PT-L3, then PT-L4
		c.L3Misses++
	case l1hit:
		reads, by = 3, ByWalkL1
		c.L3Misses++
		c.L2Misses++
	default:
		reads, by = 4, ByWalkMem
		c.L3Misses++
		c.L2Misses++
		c.L1Misses++
	}
	// Per the paper's accounting (§2.2), an upper-level miss is only
	// counted when every deeper level also missed — the switch above
	// already encodes that.
	c.MemReads += int64(reads)

	if !mapped {
		// Hardware would take a DMA remapping fault. If a stale PTcache
		// entry was consulted, account the unsafe read of freed memory.
		checkStalePT(c, table, v, l3hit, l3id, l2hit, l2id, l1hit, l1id, ptable.Walk{})
		c.Faults++
		return faulted(by, reads), ptable.Leaf{}
	}
	checkStalePT(c, table, v, l3hit, l3id, l2hit, l2id, l1hit, l1id, w)

	// Fill caches with the walk results.
	m.l1.put(domKey(d, v.L1Key()), w.PageID[1])
	m.l2.put(domKey(d, v.L2Key()), w.PageID[2])
	m.l3.put(domKey(d, v.L3Key()), w.PageID[3])
	m.iotlb.put(pn, uint64(w.Phys))
	return walked(w.Phys, by, reads), w.Leaf
}

// translateRun is direct's TranslateRun: n transactions stride bytes
// apart from v on, inside v's page, at the cost of one full translation.
// It returns the page-table reads they cost.
//
// A first transaction that produced an address hit or filled one entry —
// a 4KB or 2MB IOTLB entry, or the page's capability grant — and left it
// at the front of its set. Each later transaction would find it there,
// change no cache state, and get the verdict the first got: a page's
// mapping, its 2MB leaf and its grant are all per page. So the other
// n-1 are hits on that entry, charged at once. An audit hook still sees
// each transaction, in order, with its own IOVA. A first transaction
// that faulted cached nothing, so each of the rest takes the full path.
func (m *IOMMU) translateRun(d DomainID, v ptable.IOVA, n, stride int) int {
	dom := m.doms[d]
	t, leaf := m.translateIn(d, dom, v)
	if m.audit != nil {
		m.audit(d, v, t)
	}
	reads := t.MemReads()
	if n == 1 {
		return reads
	}
	if !t.OK() {
		for i := 1; i < n; i++ {
			reads += m.TranslateIn(d, v+ptable.IOVA(i*stride)).MemReads()
		}
		return reads
	}
	by := t.Served()
	if by.Walk() {
		// The walk filled the IOTLB entry of its leaf's size.
		by = ByIOTLB
		if leaf.Huge() {
			by = ByIOTLBHuge
		}
	}
	k, c := int64(n-1), &dom.c
	c.Translations += k
	if by == ByCap {
		c.CapChecks += k
	} else {
		c.IOTLBHits += k
	}
	if t.Stale() {
		c.StaleIOTLBUses += k
	}
	if m.audit != nil {
		for i := 1; i < n; i++ {
			u := v + ptable.IOVA(i*stride)
			p := t.Phys
			if by == ByIOTLBHuge {
				// A 2MB entry resolves the full offset.
				p += ptable.Phys(u - v)
			}
			m.audit(d, u, Hit(p, by, t.Stale()))
		}
	}
	return reads
}

// checkStalePT detects PTcache entries that point to page-table pages no
// longer on v's translation path (reclaimed or replaced) and counts each
// use in c. Any such use is a memory-safety violation in real hardware;
// every protection mode in this repository must keep this counter at zero.
func checkStalePT(c *Counters, table *ptable.Table, v ptable.IOVA, l3hit bool, l3id uint64, l2hit bool, l2id uint64, l1hit bool, l1id uint64, w ptable.Walk) {
	ids := w.PageID
	if ids == (ptable.Walk{}).PageID {
		ids = table.PageIDs(v)
	}
	if l1hit && l1id != ids[1] {
		c.StalePTUses++
	}
	if l2hit && l2id != ids[2] {
		c.StalePTUses++
	}
	if l3hit && l3id != ids[3] {
		c.StalePTUses++
	}
}

// InvalidateIn services one invalidation-queue request from domain d
// covering [base, base+pages*4KB): d's IOTLB entries in the range are
// always dropped; unless iotlbOnly is set, d's PTcache-L1/L2/L3 entries
// whose spans overlap the range are dropped too — this is exactly
// Linux's behaviour on IOVA unmap, and the iotlbOnly flag is the
// invalidation-queue option F&S sets to preserve the page-table caches
// (§3). Other domains' entries are untouched (VT-d invalidations carry
// the domain id).
func (m *IOMMU) InvalidateIn(d DomainID, base ptable.IOVA, pages int, iotlbOnly bool) {
	c := &m.doms[d].c
	c.InvRequests++
	for i := 0; i < pages; i++ {
		v := base + ptable.IOVA(i*ptable.PageSize)
		if m.iotlb.invalidate(domKey(d, v.PageNumber())) {
			c.IOTLBInvalidated++
		}
		// Also drop any 2MB entry covering this address (once per span:
		// at the range start and at each 2MB boundary).
		if i == 0 || v.L4Index() == 0 {
			if m.iotlb.invalidate(domKey(d, hugeKey(v))) {
				c.IOTLBInvalidated++
			}
		}
		if iotlbOnly {
			continue
		}
		if m.l3.invalidate(domKey(d, v.L3Key())) {
			c.PTInvalidated++
		}
		if m.l2.invalidate(domKey(d, v.L2Key())) {
			c.PTInvalidated++
		}
		if m.l1.invalidate(domKey(d, v.L1Key())) {
			c.PTInvalidated++
		}
	}
}

// InvalidateReclaimedIn drops domain d's PTcache entries that point at
// reclaimed page-table pages. F&S calls this when (and only when) an
// unmap operation reclaims pages, keeping stale-entry use impossible
// while preserving the caches in the common case.
func (m *IOMMU) InvalidateReclaimedIn(d DomainID, reclaimed []ptable.ReclaimedPage) {
	c := &m.doms[d].c
	for _, r := range reclaimed {
		var cache *lru
		switch r.Level {
		case 4: // a PT-L4 page is pointed to by a PTcache-L3 entry
			cache = &m.l3
		case 3:
			cache = &m.l2
		case 2:
			cache = &m.l1
		default:
			continue
		}
		if cache.invalidate(domKey(d, r.Key)) {
			c.PTInvalidated++
		}
	}
}

// FlushIn drops every IOTLB and PTcache entry tagged with domain d — a
// VT-d domain-selective invalidation, which Linux's flush queue issues
// for the one domain whose deferred unmaps it drains. Other domains'
// entries keep hitting. It charges no counter: the driver counts the
// flush request itself.
func (m *IOMMU) FlushIn(d DomainID) {
	m.iotlb.flush(d)
	m.l1.flush(d)
	m.l2.flush(d)
	m.l3.flush(d)
}

// CacheOccupancy reports live entries per cache: IOTLB, L1, L2, L3.
func (m *IOMMU) CacheOccupancy() (int, int, int, int) {
	return m.iotlb.len(), m.l1.len(), m.l2.len(), m.l3.len()
}
