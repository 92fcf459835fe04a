package core

import (
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
)

// The CAPIO-style capability family. The domain grants the device one
// capability per page at map time and the IOMMU validates every DMA
// against the per-domain capability table in O(1) — no IOTLB, no
// page-table walk, no memory reads on the guarded path. Unmap revokes
// the capability instead of queueing an IOTLB invalidation: an O(1)
// table update with no completion round trip. The shadow IO page table
// is still maintained — it is the safety auditor's ground truth — but
// the device never reads it, so the protection costs on the datapath
// are CapGrant/CapRevoke, not MapPage/UnmapPage/InvRequest.
//
// The family is two rows of the policy table: the contig layout with
// one of two revocations (policy.go).
//
//	cap            — synchronous revocation on unmap. Strict-equivalent
//	                 safety: the device provably loses access the moment
//	                 a descriptor (or Tx packet) completes.
//	cap-lazyrevoke — unmaps only queue the revocation; a threshold (or
//	                 the 10ms timer) flush kills the batch, the
//	                 capability analogue of Linux's deferred mode. IOVA
//	                 frees ride the same batch so no address can be
//	                 re-granted while an old capability still covers it.

// capabilityMode reports whether m belongs to the capability family.
func capabilityMode(m Mode) bool { return m == Cap || m == CapLazyRevoke }

// capRegrant is a window re-grant deferred to the lazy flush: the
// grant-table overwrite that replaces ATC shootdown on remaps.
type capRegrant struct {
	v    ptable.IOVA
	phys ptable.Phys
}

// CapTable exposes the domain's capability table (nil outside the
// capability family).
func (d *Domain) CapTable() *iommu.CapTable { return d.caps }
