package fault

import (
	"fmt"

	"fastsafe/internal/ats"
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/stats"
)

// SafetyReport classifies every audited translation. The paper's safety
// claim is exactly Violations() == 0: the hardware may block a bad DMA
// (a fault, visible and recoverable) and the driver may retry around an
// injected fault (benign), but no DMA may ever be served from a stale
// mapping.
type SafetyReport struct {
	Checked       int64 // translations audited
	Blocked       int64 // translation faulted — hardware blocked the access
	StaleUnmapped int64 // served from a cached entry for an unmapped IOVA
	StaleRemapped int64 // served a stale physical page for a since-remapped IOVA
	// StaleATS counts DMAs served from a device-side ATS cache entry
	// that outlived its host mapping — the entry was still valid in the
	// device TLB after the host unmapped (or remapped) the IOVA because
	// no ATC-invalidate was ordered before reuse. Strict and F&S close
	// this window by shooting the ATC down inside the unmap; the
	// defer-noshootdown strawman provably does not.
	StaleATS int64
	// StaleCapability counts DMAs validated by a capability whose grant
	// outlived the mapping it covered — the cap-lazyrevoke window between
	// unmap (or window re-point) and the revocation flush. The eager cap
	// mode kills the grant inside the unmap, so it must stay at zero the
	// way strict/F&S keep the IOTLB counters at zero.
	StaleCapability int64
	Retries         int64 // benign driver retries provoked by injected faults
}

// Violations counts true safety violations: DMAs the IOMMU let through
// to memory the current page table does not map them to.
func (r SafetyReport) Violations() int64 {
	return r.StaleUnmapped + r.StaleRemapped + r.StaleATS + r.StaleCapability
}

// Sub returns the window delta r−b (both taken from the same auditor).
func (r SafetyReport) Sub(b SafetyReport) SafetyReport {
	return SafetyReport{
		Checked:         r.Checked - b.Checked,
		Blocked:         r.Blocked - b.Blocked,
		StaleUnmapped:   r.StaleUnmapped - b.StaleUnmapped,
		StaleRemapped:   r.StaleRemapped - b.StaleRemapped,
		StaleATS:        r.StaleATS - b.StaleATS,
		StaleCapability: r.StaleCapability - b.StaleCapability,
		Retries:         r.Retries - b.Retries,
	}
}

func (r SafetyReport) String() string {
	return fmt.Sprintf("checked=%d blocked=%d stale_unmapped=%d stale_remapped=%d stale_ats=%d stale_cap=%d retries=%d violations=%d",
		r.Checked, r.Blocked, r.StaleUnmapped, r.StaleRemapped, r.StaleATS, r.StaleCapability, r.Retries, r.Violations())
}

// Auditor cross-checks every completed translation against the live IO
// page table, the simulator's ground truth. It sees three signals:
//
//   - !OK: the IOMMU faulted — the access never reached memory (Blocked).
//   - Stale: the IOMMU served a cached entry whose IOVA is no longer
//     mapped — a freed-memory DMA (StaleUnmapped).
//   - neither, but the physical page the translation returned differs
//     from what the live table maps the IOVA to — the IOVA was recycled
//     and remapped while a cached entry survived, so the DMA landed in
//     another buffer's memory (StaleRemapped). This is the violation the
//     IOMMU itself cannot see: the IOVA looks mapped, just not there.
//
// The audit is a pure read of the page table (Lookup/LookupHugeAware
// mutate nothing), so enabling it perturbs no counters, costs, or cache
// state — audited and unaudited runs are byte-identical.
type Auditor struct {
	mmu    *iommu.IOMMU
	global SafetyReport
}

// NewAuditor installs the audit hook on the shared IOMMU and returns the
// auditor owning the resulting report.
func NewAuditor(mmu *iommu.IOMMU) *Auditor {
	a := &Auditor{mmu: mmu}
	mmu.SetAuditHook(a.check)
	return a
}

func (a *Auditor) check(d iommu.DomainID, v ptable.IOVA, t iommu.Translation) {
	g := &a.global
	g.Checked++
	switch {
	case !t.OK():
		g.Blocked++
	case t.Stale():
		g.StaleUnmapped++
	default:
		// The IOMMU says this translation is fine. Verify against the
		// live table: same physical page for both 4KB and huge leaves
		// (LookupHugeAware returns the offset-adjusted huge phys, the
		// same convention Translation.Phys uses). A mismatch under a
		// capability check means the grant outlived its mapping — the
		// lazy-revoke hole — and is classified separately so campaigns
		// can pin it on the capability family the way stale-IOTLB serves
		// pin deferred modes.
		if w, _, ok := a.mmu.TableOf(d).LookupHugeAware(v); !ok || w.Phys != t.Phys {
			if t.Served() == iommu.ByCap {
				g.StaleCapability++
			} else {
				g.StaleRemapped++
			}
		}
	}
}

// AttachATC re-walks domain d's device-side ATS cache hits too: the
// auditor installs a hook on the ATC that fires only on hits (misses
// flow through the inner translator into the IOMMU's own audit hook, so
// nothing is double-counted) and classifies served-while-stale hits as
// StaleATS. Like the IOMMU-side check, the hook is a pure page-table
// read. Nil-safe on both sides.
func (a *Auditor) AttachATC(d iommu.DomainID, c *ats.Cache) {
	if a == nil || c == nil {
		return
	}
	c.SetAuditHook(func(v ptable.IOVA, t iommu.Translation) { a.checkATC(d, v, t) })
}

func (a *Auditor) checkATC(d iommu.DomainID, v ptable.IOVA, t iommu.Translation) {
	a.global.Checked++
	// An ATC hit always produces an address; verify it against the live
	// table. Unmapped or re-pointed both mean the device TLB served a
	// translation the host had revoked.
	if w, _, ok := a.mmu.TableOf(d).LookupHugeAware(v); !ok || w.Phys != t.Phys {
		a.global.StaleATS++
	}
}

// noteRetry counts one benign driver retry.
func (a *Auditor) noteRetry() {
	if a == nil {
		return
	}
	a.global.Retries++
}

// Report returns the aggregate safety report; zero on nil.
func (a *Auditor) Report() SafetyReport {
	if a == nil {
		return SafetyReport{}
	}
	return a.global
}

// RegisterProbes exposes the aggregate report under prefix
// (e.g. "audit.").
func (a *Auditor) RegisterProbes(r *stats.Registry, prefix string) {
	if a == nil {
		return
	}
	probe := func(name string, fn func(SafetyReport) int64) {
		r.GaugeFunc(prefix+name, func() float64 { return float64(fn(a.global)) })
	}
	probe("checked", func(s SafetyReport) int64 { return s.Checked })
	probe("blocked", func(s SafetyReport) int64 { return s.Blocked })
	probe("stale_unmapped", func(s SafetyReport) int64 { return s.StaleUnmapped })
	probe("stale_remapped", func(s SafetyReport) int64 { return s.StaleRemapped })
	probe("stale_ats", func(s SafetyReport) int64 { return s.StaleATS })
	probe("stale_cap", func(s SafetyReport) int64 { return s.StaleCapability })
	probe("retries", func(s SafetyReport) int64 { return s.Retries })
	probe("violations", func(s SafetyReport) int64 { return s.Violations() })
}
