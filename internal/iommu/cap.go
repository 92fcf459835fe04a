package iommu

import (
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
type CapTable struct {
	c      *Counters              // the owning domain's counters
	grants map[uint64]ptable.Phys // IOVA page number -> granted frame
}

// AttachCapTable registers (or returns) domain d's capability table and
// routes d's translations through it. Counters reset does not clear the
// grants — capabilities are driver state, not cache state.
func (m *IOMMU) AttachCapTable(d DomainID) *CapTable {
	dom := m.doms[d]
	if dom.cap == nil {
		dom.cap = &CapTable{c: &dom.c, grants: make(map[uint64]ptable.Phys)}
	}
	return dom.cap
}

// CapTableOf returns domain d's capability table, nil when the domain
// does not use capability protection.
func (m *IOMMU) CapTableOf(d DomainID) *CapTable {
	if dom := m.domainOf(d); dom != nil {
		return dom.cap
	}
	return nil
}

// Grant installs (or overwrites) the capability for v. An overwrite
// counts as a revocation of the previous grant — the re-grant path that
// replaces ATC shootdown on window remaps.
func (ct *CapTable) Grant(v ptable.IOVA, p ptable.Phys) (replaced bool) {
	pn := v.PageNumber()
	if _, ok := ct.grants[pn]; ok {
		replaced = true
		ct.c.CapRevocations++
	}
	ct.grants[pn] = p
	return replaced
}

// Revoke kills the capability for v. Reports whether a grant existed.
func (ct *CapTable) Revoke(v ptable.IOVA) bool {
	pn := v.PageNumber()
	if _, ok := ct.grants[pn]; !ok {
		return false
	}
	delete(ct.grants, pn)
	ct.c.CapRevocations++
	return true
}

// Granted reports whether v currently holds a capability.
func (ct *CapTable) Granted(v ptable.IOVA) bool {
	_, ok := ct.grants[v.PageNumber()]
	return ok
}

// Len reports the number of live grants.
func (ct *CapTable) Len() int { return len(ct.grants) }

// check validates one DMA transaction against the table. O(1), zero
// memory reads: the table stands in for dedicated capability hardware
// beside the translation agent. A miss is a blocked DMA (the analogue
// of a remapping fault).
func (ct *CapTable) check(v ptable.IOVA) Translation {
	ct.c.Translations++
	ct.c.CapChecks++
	p, ok := ct.grants[v.PageNumber()]
	if !ok {
		ct.c.CapDenied++
		ct.c.Faults++
		return faulted(ByCap, 0)
	}
	// Like the walk path, the result is the page frame (Lookup aligns
	// down): the auditor compares frames, not byte addresses.
	return Hit(p, ByCap, false)
}
