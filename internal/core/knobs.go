package core

import (
	"fmt"
	"strings"

	"fastsafe/internal/sim"
)

// Runtime mode switching. Construction (Config) decides the frozen shape
// of a domain — IOMMU attachment, CPU count, capability-table
// attachment, batch threshold — while the bound protection mode is the
// one parameter a control plane may retune while traffic is in flight.
// NewDomain binds Config.Mode; SetMode is the only writer.

// CanSwitch reports whether a runtime transition from mode `from` to
// mode `to` is supported, with the same error SetMode would return.
// Control planes validate their rules against it at construction so a
// mis-specced rule fails loudly before traffic flows.
func CanSwitch(from, to Mode) error {
	if from == to {
		return nil
	}
	tp, ok := PolicyFor(to)
	if !ok {
		return fmt.Errorf("core: mode %v has no registered policy (valid: %s)",
			to, strings.Join(ValidModeNames(), ", "))
	}
	if fp, ok := PolicyFor(from); !ok || !fp.switchable() || !tp.switchable() {
		return fmt.Errorf("core: cannot switch %v -> %v at runtime (off, persistent and fns+huge pin identity mappings, recycled pools or shared 2MB chunks that no transition can drain)",
			from, to)
	}
	if capabilityMode(from) != capabilityMode(to) {
		return fmt.Errorf("core: cannot switch %v -> %v at runtime (the capability table attaches at construction; switch within the page-table family or within the capability family)",
			from, to)
	}
	return nil
}

// SetMode switches the domain's protection mode to m. A switch runs the
// transition protocol — drain the batch the old policy accumulated,
// retire partially filled Tx chunks, and shoot down every cached
// translation — before rebinding the policy, so nothing the old mode
// left behind can be served under the new one (the auditor stays
// zero-stale across the switch). In-flight descriptors and Tx packets
// keep the policy that mapped them and complete through it. Returns the
// CPU time the transition cost (already charged to the domain).
func (d *Domain) SetMode(m Mode) (sim.Duration, error) {
	if m == d.mode {
		return 0, nil
	}
	if err := CanSwitch(d.mode, m); err != nil {
		return 0, err
	}
	pol, _ := PolicyFor(m)
	// Drain the revocation batch (self-charging), so no unmap the old
	// policy queued outlives its policy.
	cost := d.FlushDeferred()
	var extra sim.Duration
	// Retire partially filled Tx chunks: slots already handed to
	// in-flight packets were mapped by the old policy and complete
	// through it (each mapping carries its origin); the unfilled tail
	// was never mapped. Capping the chunk keeps any new-mode packet out
	// of an old-mode chunk, and the IOVA range frees as usual once the
	// last in-flight slot completes.
	for cpu, ch := range d.txChunks {
		if ch == nil {
			continue
		}
		ch.released += ch.pages - ch.next
		ch.next = ch.pages
		if ch.released == ch.pages {
			extra += d.freeIOVA(d.txFreeCPU(cpu), ch.base, ch.pages)
			d.freeChunks = append(d.freeChunks, ch)
		}
		d.txChunks[cpu] = nil
	}
	// Quiesce cached translation state: one domain-selective flush
	// covers the domain's IOTLB and page-table cache entries, and — because the
	// domain's translator is the ATC when one is attached — the
	// device-side ATS cache. Capability domains have no translation
	// caches to quiesce; their grant table is already exact.
	if d.caps == nil {
		extra += d.flushInvalidate()
	}
	d.pol = pol
	d.mode = m
	d.c.CPUTime += extra
	return cost + extra, nil
}
