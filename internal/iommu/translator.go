package iommu

import "fastsafe/internal/ptable"

// Translator is the seam between a protection domain's driver operations
// and whatever performs (and caches) its DMA translations. The IOMMU's
// own pipeline is the base implementation; a device-side ATS translation
// cache wraps it, caching completed translations in the device and
// intercepting invalidations so the host can shoot down the device TLB.
// A domain built without ATS routes through the direct implementation,
// which forwards to the IOMMU — same counters, same event stream.
type Translator interface {
	// Translate resolves one PCIe transaction's IOVA.
	Translate(v ptable.IOVA) Translation
	// TranslateRun resolves n transactions stride bytes apart, from v
	// on, all inside v's 4KB page, and returns the page-table reads
	// they cost. Its effects are exactly those of n Translate calls.
	TranslateRun(v ptable.IOVA, n, stride int) (reads int)
	// Invalidate services one invalidation-queue request covering
	// [base, base+pages*4KB); iotlbOnly preserves the PTcaches (F&S
	// idea A).
	Invalidate(base ptable.IOVA, pages int, iotlbOnly bool)
	// InvalidateAll is a domain-selective flush: it drops every cached
	// translation of this domain and no other (a deferred-mode batch
	// drain, a knob switch, teardown).
	InvalidateAll()
}

// direct is the ATS-less Translator: the domain talks straight to the
// shared IOMMU. Its TranslateRun translates the run's first transaction
// and charges the rest as hits on the entry that one hit or filled.
type direct struct {
	m *IOMMU
	d DomainID
}

func (t direct) Translate(v ptable.IOVA) Translation { return t.m.TranslateIn(t.d, v) }

func (t direct) TranslateRun(v ptable.IOVA, n, stride int) (reads int) {
	return t.m.translateRun(t.d, v, n, stride)
}

func (t direct) Invalidate(base ptable.IOVA, pages int, iotlbOnly bool) {
	t.m.InvalidateIn(t.d, base, pages, iotlbOnly)
}

func (t direct) InvalidateAll() { t.m.FlushIn(t.d) }

// TranslatorOf returns domain d's direct (IOMMU-only) Translator.
func (m *IOMMU) TranslatorOf(d DomainID) Translator { return direct{m: m, d: d} }
