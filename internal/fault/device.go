package fault

import (
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// Translator is the slice of a protection domain a misbehaving device
// needs: the ability to issue translations. *core.Domain satisfies it.
type Translator interface {
	Translate(v ptable.IOVA) iommu.Translation
}

// strayWindow is how many recently used IOVAs a misbehaving device
// remembers. Replays come from this ring, so most hit addresses the
// driver has already unmapped and recycled — exactly the window a
// stale-TLB safety hole needs.
const strayWindow = 256

// Device injects device-side misbehaviour for one attached device: DMA
// replays of previously used (likely freed) IOVAs, accesses to
// never-mapped unaligned addresses, and duplicate out-of-window
// descriptor reads. All methods are nil-safe no-ops so devices hold an
// unconditional pointer.
type Device struct {
	inj    *Injector
	dom    Translator
	window []ptable.IOVA
	next   int
	wild   uint64
}

// Device builds the misbehaviour hook for one device's domain; nil on a
// nil injector (no plan).
func (i *Injector) Device(dom Translator) *Device {
	if i == nil || dom == nil {
		return nil
	}
	return &Device{inj: i, dom: dom}
}

// Observe records an IOVA the device legitimately used; stray replays
// draw from this ring. Cheap enough to call per DMA batch.
func (d *Device) Observe(v ptable.IOVA) {
	if d == nil || d.inj.plan.StrayDMA <= 0 {
		return
	}
	if len(d.window) < strayWindow {
		d.window = append(d.window, v)
		return
	}
	d.window[d.next] = v
	d.next = (d.next + 1) % strayWindow
}

// MaybeMisbehave rolls the device-misbehaviour dice once and issues any
// resulting adversarial translations against the domain. It returns the
// extra page-table memory reads the misbehaviour cost, which the caller
// charges to the in-flight DMA; the translations themselves flow through
// the shared IOMMU and are classified by the auditor like any other.
func (d *Device) MaybeMisbehave() int {
	if d == nil {
		return 0
	}
	reads := 0
	if len(d.window) > 0 && d.inj.roll(d.inj.plan.StrayDMA) {
		d.inj.c.StrayDMAs++
		v := d.window[d.inj.rng.Intn(len(d.window))]
		reads += d.dom.Translate(v).MemReads()
	}
	if d.inj.roll(d.inj.plan.WildDMA) {
		d.inj.c.WildDMAs++
		// March through low, unaligned addresses: the allocator hands
		// out IOVAs top-down, so these are never mapped and must fault.
		d.wild++
		v := ptable.IOVA(d.wild*0x5000 + 0x13)
		reads += d.dom.Translate(v).MemReads()
	}
	return reads
}

// DupDescRead reports whether to issue a duplicate descriptor fetch;
// the injection itself (a second ring translation) is the caller's.
func (d *Device) DupDescRead() bool {
	if d == nil || !d.inj.roll(d.inj.plan.DupDescRead) {
		return false
	}
	d.inj.c.DupDescReads++
	return true
}

// DelayWriteback forwards to the injector's writeback-delay roll.
func (d *Device) DelayWriteback() sim.Duration {
	if d == nil {
		return 0
	}
	return d.inj.DelayWriteback()
}
