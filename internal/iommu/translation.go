package iommu

import (
	"fmt"

	"fastsafe/internal/ptable"
)

// Translation is the outcome of translating one PCIe transaction's IOVA:
// the address, and one word that packs what served it, the page-table
// reads it cost and whether it produced an address or served a stale
// one. Callers read the word through OK, Stale, MemReads and Served.
//
// Two fields of one word each is the shape gc keeps in registers (see
// TestTranslationFitsRegisters): every translation returns up the seam —
// IOMMU, ATC, the domain, the NIC — without a trip through memory.
type Translation struct {
	Phys ptable.Phys
	w    uint64
}

// ServedBy names what served a translation. A walk is named by the
// deepest page-table cache it started from; ByWalkMem is a walk every
// cache missed, from the root. The zero ServedBy is the zero
// Translation's: nothing served it.
type ServedBy uint8

const (
	ByIOTLB     ServedBy = 1 + iota // a 4KB IOTLB entry
	ByIOTLBHuge                     // a 2MB IOTLB entry
	ByWalkL3                        // a walk from a PTcache-L3 hit
	ByWalkL2                        // a walk from a PTcache-L2 hit
	ByWalkL1                        // a walk from a PTcache-L1 hit
	ByWalkMem                       // a walk that missed every PTcache
	ByATC                           // a device-side ATS cache entry
	ByCap                           // a capability-table check
)

var servedNames = [...]string{"none", "iotlb", "iotlb-2mb", "walk-l3", "walk-l2", "walk-l1", "walk-mem", "atc", "cap"}

func (s ServedBy) String() string { return servedNames[s] }

// IOTLB reports whether an IOTLB entry, of either size, served the
// translation.
func (s ServedBy) IOTLB() bool { return s == ByIOTLB || s == ByIOTLBHuge }

// Walk reports whether the translation walked the page table.
func (s ServedBy) Walk() bool { return s >= ByWalkL3 && s <= ByWalkMem }

// The word's layout: ServedBy in the low four bits, then the ok and
// stale flags, then the page-table reads.
const (
	servedMask = 1<<4 - 1
	okBit      = 1 << 4
	staleBit   = 1 << 5
	readsShift = 8
)

// OK reports whether the translation produced an address.
func (t Translation) OK() bool { return t.w&okBit != 0 }

// Stale reports whether a cached entry served an address the host had
// revoked: a safety violation.
func (t Translation) Stale() bool { return t.w&staleBit != 0 }

// MemReads reports the page-table reads the translation cost: 0 on a
// hit.
func (t Translation) MemReads() int { return int(t.w >> readsShift) }

// Served reports what served the translation.
func (t Translation) Served() ServedBy { return ServedBy(t.w & servedMask) }

// Hit returns a translation to p that by served from a cached entry or
// a grant, at no page-table read; stale marks an entry the host has
// revoked.
func Hit(p ptable.Phys, by ServedBy, stale bool) Translation {
	t := Translation{Phys: p, w: uint64(by) | okBit}
	if stale {
		t.w |= staleBit
	}
	return t
}

// walked returns the translation to p of a walk that started where by
// says and cost reads.
func walked(p ptable.Phys, by ServedBy, reads int) Translation {
	return Translation{Phys: p, w: uint64(by) | okBit | uint64(reads)<<readsShift}
}

// faulted returns a translation that produced no address after reads.
func faulted(by ServedBy, reads int) Translation {
	return Translation{w: uint64(by) | uint64(reads)<<readsShift}
}

// WithReads returns t with n more page-table reads charged to it.
func (t Translation) WithReads(n int) Translation {
	t.w += uint64(n) << readsShift
	return t
}

// String prints every part of the translation, the word unpacked.
func (t Translation) String() string {
	return fmt.Sprintf("{Phys:%#x OK:%t Served:%v MemReads:%d Stale:%t}",
		uint64(t.Phys), t.OK(), t.Served(), t.MemReads(), t.Stale())
}
