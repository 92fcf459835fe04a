// Package core implements the memory-protection datapaths the paper
// studies: the Linux strict and deferred modes, the F&S design (§3), the
// two F&S ablations from §4.3, and a persistent-mapping baseline standing
// in for the DAMN [34] / hugepage [16] family of weaker-safety designs.
//
// A Domain is the IOMMU-driver view the NIC driver programs against:
// prepare (map) descriptors, complete (unmap) descriptors, map and unmap
// Tx packets. Every operation returns the CPU time it cost, so the host
// simulation can charge it to a core.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// Mode selects the protection datapath.
type Mode int

const (
	// Off disables the IOMMU: devices use physical addresses. Fastest,
	// no protection (the paper's "IOMMU disabled" baseline).
	Off Mode = iota
	// Strict is Linux's strict mode: per-page IOVAs from the rcache
	// allocator; on every descriptor completion each page is unmapped and
	// a per-page invalidation drops its IOTLB entry and the PTcache
	// entries covering it. Strongest safety, worst performance.
	Strict
	// Deferred is Linux's deferred (lazy) mode: unmaps happen immediately
	// but invalidations are batched until a threshold and then flushed
	// globally. Weaker safety: the device can reach unmapped pages until
	// the flush.
	Deferred
	// StrictPreserve is ablation "Linux + A" from §4.3: strict mode, but
	// invalidations preserve the page-table caches (invalidating them only
	// when an unmap reclaims a page-table page).
	StrictPreserve
	// StrictContig is ablation "Linux + B" from §4.3: descriptor-sized
	// contiguous IOVA allocation plus a single ranged (batched)
	// invalidation per descriptor, but the invalidation still drops the
	// page-table caches as in default Linux.
	StrictContig
	// FNS is the paper's Fast & Safe design: contiguous descriptor-sized
	// IOVAs (B), IOTLB-only invalidations that preserve the page-table
	// caches (A), PTcache invalidation only on page-table page
	// reclamation, and one ranged invalidation-queue request per
	// descriptor. Same safety as Strict.
	FNS
	// Persistent keeps IOVA-to-page mappings alive forever and recycles
	// pre-mapped descriptors, in the spirit of DAMN [34] and the hugepage
	// pinning of [16]. No unmap or invalidation cost, but the device
	// retains access to recycled buffers: weaker safety.
	Persistent
	// FNSHuge is the paper's §5 future-work direction: F&S combined with
	// hugepages to also reduce the IOTLB miss *count*. Rx descriptors are
	// carved from 2MB huge mappings (one IOTLB entry per 512 pages);
	// unmap + invalidation happen when a whole 2MB chunk's descriptors
	// have completed. Safety is at hugepage granularity — stronger than
	// deferred/persistent, weaker than strict's per-descriptor guarantee.
	// The Tx datapath is unchanged from FNS.
	FNSHuge
	// DeferNoShootdown is a deliberately unsafe strawman for the fault
	// layer's audit campaigns: contiguous unmaps like FNS, but no
	// invalidation is ever submitted — "deferred without the shootdown".
	// IOVAs recycle immediately while IOTLB/PTcache entries survive, so
	// the safety auditor must flag stale-served DMAs. It exists to prove
	// the auditor has teeth and is deliberately excluded from Modes().
	DeferNoShootdown
	// Cap is the CAPIO-style capability family: the domain grants the
	// device a per-buffer capability at map time, every DMA is validated
	// against the per-domain capability table in O(1) (no page-table walk
	// on the guarded path), and unmap synchronously revokes the
	// capability instead of queueing an IOTLB invalidation. Strict-
	// equivalent safety: the device provably loses access the moment the
	// descriptor completes. Kept out of Modes() — the capability figure
	// compares it explicitly rather than riding every mode sweep.
	Cap
	// CapLazyRevoke is the weaker capability variant: unmaps only queue
	// the revocation, and a threshold (or timer) flush kills the batch —
	// the capability analogue of Deferred. The device can keep using a
	// granted capability until the flush, so the safety auditor must
	// classify those serves as stale-capability violations.
	CapLazyRevoke
)

var modeNames = map[Mode]string{
	Off:              "off",
	Strict:           "strict",
	Deferred:         "deferred",
	StrictPreserve:   "strict+preserve",
	StrictContig:     "strict+contig",
	FNS:              "fns",
	Persistent:       "persistent",
	FNSHuge:          "fns+huge",
	DeferNoShootdown: "defer-noshootdown",
	Cap:              "cap",
	CapLazyRevoke:    "cap-lazyrevoke",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ValidModeNames is the one shared name table: every parseable mode
// name, Modes() presentation order first, then the modes deliberately
// kept out of Modes() (strawmen and the capability family) sorted by
// name. ParseMode, NewDomain, SetMode and the control-spec parser all
// list it, so every rejection of a mode uses the same vocabulary.
func ValidModeNames() []string {
	listed := Modes()
	out := make([]string, 0, len(modeNames))
	seen := make(map[Mode]bool, len(listed))
	for _, m := range listed {
		out = append(out, m.String())
		seen[m] = true
	}
	var extra []string
	for m, name := range modeNames {
		if !seen[m] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// ParseMode maps a name (as printed by String) back to a Mode. It is
// the one parser for protection-mode specs from CLI flags and control
// rules; the error names the input and lists every valid mode.
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown protection mode %q (valid: %s)",
		s, strings.Join(ValidModeNames(), ", "))
}

// policy resolves m to its registered policy. NewDomain rejects an
// unregistered mode, so reaching one here is a caller bug: panic and
// name the mode instead of guessing its properties.
func (m Mode) policy() *Policy {
	p, ok := PolicyFor(m)
	if !ok {
		panic(fmt.Sprintf("core: %v is not a registered protection mode", m))
	}
	return p
}

// Translated reports whether DMA addresses pass through the IOMMU's
// protection check (address translation or capability validation) in
// this mode.
func (m Mode) Translated() bool { return m.policy().Translated() }

// StrictSafety reports whether the mode guarantees the device cannot
// access a buffer after its descriptor completes (the paper's strict
// safety property).
func (m Mode) StrictSafety() bool { return m.policy().StrictSafety() }

// Contiguous reports whether the mode allocates descriptor-sized (or
// larger) contiguous IOVA chunks.
func (m Mode) Contiguous() bool { return m.policy().Contiguous() }

// PreservesPTCaches reports whether invalidations keep the page-table
// caches (F&S idea A).
func (m Mode) PreservesPTCaches() bool { return m.policy().PreservesPTCaches() }

// Modes lists all implemented modes in presentation order.
// DeferNoShootdown is deliberately absent: it is a fault-campaign
// strawman, not a design point the figures compare.
func Modes() []Mode {
	return []Mode{Off, Strict, Deferred, StrictPreserve, StrictContig, FNS, Persistent, FNSHuge}
}
