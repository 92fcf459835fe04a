package iommu

import (
	"fmt"

	"fastsafe/internal/ptable"
)

// CapTable is a per-domain capability table in the CAPIO style: the
// driver grants the device a capability per page at map time, and every
// DMA is validated against the table in O(1) — no IOTLB, no page-table
// walk, no memory reads on the guarded path. Revocation is a table
// update, not an invalidation-queue round trip, which is the family's
// whole bargain: per-page grant/revoke cost in exchange for never
// paying shootdown latency.
//
// The table is the device's *only* translation source once attached:
// the IOMMU short-circuits the walk pipeline for capability domains, so
// safety reduces to "is the grant current", which the fault auditor
// cross-checks against the live page table.
//
// Grants live in a radix over the IOVA page number shaped like the page
// table: the root and two interior levels are indexed by IOVA bits
// 47:39, 38:30 and 29:21, and a capPage holds the grants of one 2MB
// region. A region whose last grant is revoked goes to a free list and
// is reused by the next region granted. The allocator's chunks wander,
// so regions that were never freed would pile up: a 170ms serving run
// touches about 1,070 regions while at most 104 hold a grant at once.
type CapTable struct {
	c    *Counters // the owning domain's counters
	root [ptable.EntriesPerPage]*[ptable.EntriesPerPage]*[ptable.EntriesPerPage]*capPage
	free []*capPage // emptied regions, reused before allocating
	n    int        // live grants
}

// capPage holds the grants of one 2MB region: each 4KB page's granted
// frame, a bitmap of the live grants and their count.
type capPage struct {
	phys  [ptable.EntriesPerPage]ptable.Phys
	live  [ptable.EntriesPerPage / 64]uint64
	count int
}

// AttachCapTable registers (or returns) domain d's capability table and
// routes d's translations through it. Counters reset does not clear the
// grants — capabilities are driver state, not cache state.
func (m *IOMMU) AttachCapTable(d DomainID) *CapTable {
	dom := m.doms[d]
	if dom.cap == nil {
		dom.cap = &CapTable{c: &dom.c}
	}
	return dom.cap
}

// regions returns the region slots of v's 1GB span, nil when no grant
// was ever made in it (or v lies outside the 48-bit IOVA space).
func (ct *CapTable) regions(v ptable.IOVA) *[ptable.EntriesPerPage]*capPage {
	if uint64(v) >= ptable.AddrSpace {
		return nil
	}
	if l2 := ct.root[v.L1Index()]; l2 != nil {
		return l2[v.L2Index()]
	}
	return nil
}

// lookup returns v's granted frame and whether the grant is live.
func (ct *CapTable) lookup(v ptable.IOVA) (ptable.Phys, bool) {
	if rs := ct.regions(v); rs != nil {
		if pg := rs[v.L3Index()]; pg != nil {
			i := v.L4Index()
			return pg.phys[i], pg.live[i/64]&(1<<(i%64)) != 0
		}
	}
	return 0, false
}

// Grant installs (or overwrites) the capability for v. An overwrite
// counts as a revocation of the previous grant — the re-grant path that
// replaces ATC shootdown on window remaps. v must lie in the 48-bit IOVA
// space, as every IOVA the driver maps does.
func (ct *CapTable) Grant(v ptable.IOVA, p ptable.Phys) (replaced bool) {
	if uint64(v) >= ptable.AddrSpace {
		panic(fmt.Sprintf("iommu: capability grant for %v outside the 48-bit IOVA space", v))
	}
	l2 := ct.root[v.L1Index()]
	if l2 == nil {
		l2 = new([ptable.EntriesPerPage]*[ptable.EntriesPerPage]*capPage)
		ct.root[v.L1Index()] = l2
	}
	rs := l2[v.L2Index()]
	if rs == nil {
		rs = new([ptable.EntriesPerPage]*capPage)
		l2[v.L2Index()] = rs
	}
	pg := rs[v.L3Index()]
	if pg == nil {
		if n := len(ct.free); n > 0 {
			pg = ct.free[n-1]
			ct.free = ct.free[:n-1]
		} else {
			pg = new(capPage)
		}
		rs[v.L3Index()] = pg
	}
	i := v.L4Index()
	if bit := uint64(1) << (i % 64); pg.live[i/64]&bit != 0 {
		replaced = true
		ct.c.CapRevocations++
	} else {
		pg.live[i/64] |= bit
		pg.count++
		ct.n++
	}
	pg.phys[i] = p
	return replaced
}

// Revoke kills the capability for v. Reports whether a grant existed.
func (ct *CapTable) Revoke(v ptable.IOVA) bool {
	rs := ct.regions(v)
	if rs == nil {
		return false
	}
	pg := rs[v.L3Index()]
	if pg == nil {
		return false
	}
	i := v.L4Index()
	bit := uint64(1) << (i % 64)
	if pg.live[i/64]&bit == 0 {
		return false
	}
	pg.live[i/64] &^= bit
	ct.n--
	ct.c.CapRevocations++
	if pg.count--; pg.count == 0 {
		// Its bitmap is clear and a grant rewrites its frame, so the
		// page serves the next new region as it is.
		rs[v.L3Index()] = nil
		ct.free = append(ct.free, pg)
	}
	return true
}

// Len reports the number of live grants.
func (ct *CapTable) Len() int { return ct.n }

// check validates one DMA transaction against the table. O(1), zero
// memory reads: the table stands in for dedicated capability hardware
// beside the translation agent. A miss is a blocked DMA (the analogue
// of a remapping fault).
func (ct *CapTable) check(v ptable.IOVA) Translation {
	ct.c.Translations++
	ct.c.CapChecks++
	p, ok := ct.lookup(v)
	if !ok {
		ct.c.CapDenied++
		ct.c.Faults++
		return faulted(ByCap, 0)
	}
	// Like the walk path, the result is the page frame (Lookup aligns
	// down): the auditor compares frames, not byte addresses.
	return Hit(p, ByCap, false)
}
