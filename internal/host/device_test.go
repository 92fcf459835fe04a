package host

import (
	"math"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/iommu"
	"fastsafe/internal/sim"
)

// runTopology builds a host with n storage co-tenants declared in
// Topology and runs a short window. 1.5GB/s per device matches the
// multidev experiment figure: enough aggregate DMA to collapse strict
// mode at four co-tenants, below the regime where raw memory-bus and
// shared-IOTLB capacity pressure drags F&S down too (that effect is
// mode-independent).
func runTopology(t *testing.T, mode core.Mode, storageDevs int) Results {
	t.Helper()
	var topo Topology
	for i := 0; i < storageDevs; i++ {
		topo.Storage = append(topo.Storage, StorageSpec{ReadGBps: 1.5})
	}
	h, err := New(Config{Mode: mode, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return h.Run(5*sim.Millisecond, 15*sim.Millisecond)
}

// The refactor's acceptance experiment: adding storage co-tenants through
// Topology degrades the strict-mode NIC's goodput monotonically, while
// F&S stays within 5% of its single-co-tenant value — the paper's thesis
// (§1: one IOMMU serves every DMA device, so protection cost scales with
// co-tenant pressure; F&S removes the pressure) extended to multi-device
// hosts.
func TestMultiDeviceInterference(t *testing.T) {
	counts := []int{0, 1, 2, 4}
	strict := make([]Results, len(counts))
	fns := make([]Results, len(counts))
	for i, n := range counts {
		strict[i] = runTopology(t, core.Strict, n)
		fns[i] = runTopology(t, core.FNS, n)
	}

	// Strict degrades monotonically once co-tenants exist, and the full
	// sweep costs it several Gbps end to end. (0 -> 1 is excluded from
	// the monotonic check: a single light device perturbs timing within
	// noise before invalidation pressure dominates.)
	for i := 2; i < len(counts); i++ {
		if strict[i].RxGbps >= strict[i-1].RxGbps {
			t.Errorf("strict NIC goodput did not degrade from %d to %d co-tenants: %.1f -> %.1f Gbps",
				counts[i-1], counts[i], strict[i-1].RxGbps, strict[i].RxGbps)
		}
	}
	if strict[len(counts)-1].RxGbps >= strict[0].RxGbps-5 {
		t.Errorf("strict NIC goodput with %d co-tenants (%.1f) not clearly below baseline (%.1f)",
			counts[len(counts)-1], strict[len(counts)-1].RxGbps, strict[0].RxGbps)
	}
	for i := 1; i < len(counts); i++ {
		if rel := math.Abs(fns[i].RxGbps-fns[1].RxGbps) / fns[1].RxGbps; rel > 0.05 {
			t.Errorf("FNS NIC goodput with %d co-tenants (%.1f) deviates %.1f%% from single-device value (%.1f)",
				counts[i], fns[i].RxGbps, rel*100, fns[1].RxGbps)
		}
	}

	// The per-device breakdown reflects the topology: primary NIC first,
	// then each storage device, each moving bytes in the window.
	r := strict[len(counts)-1]
	if want := 1 + counts[len(counts)-1]; len(r.Devices) != want {
		t.Fatalf("Devices rows = %d, want %d", len(r.Devices), want)
	}
	if r.Devices[0].Kind != "nic" || r.Devices[0].GoodputGbps <= 0 {
		t.Fatalf("primary NIC row malformed: %+v", r.Devices[0])
	}
	for _, d := range r.Devices[1:] {
		if d.Kind != "storage" {
			t.Fatalf("co-tenant row kind = %q, want storage", d.Kind)
		}
		if d.GoodputGbps <= 0 {
			t.Fatalf("storage device %s moved no bytes", d.Name)
		}
		if d.Invalidations == 0 {
			t.Fatalf("strict storage device %s submitted no invalidations", d.Name)
		}
	}
}

// Per-device attribution must be exact at host scale too: summing the
// CountersOf of every device's domain, as Results' per-device breakdown
// reads them, reproduces the shared IOMMU's global counters
// field-for-field after a full multi-device run.
func TestPerDeviceCountersSumToGlobal(t *testing.T) {
	for _, mode := range []core.Mode{core.Strict, core.FNS} {
		var topo Topology
		topo.Storage = append(topo.Storage, StorageSpec{ReadGBps: 4}, StorageSpec{ReadGBps: 4})
		h, err := New(Config{Mode: mode, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		h.Run(2*sim.Millisecond, 6*sim.Millisecond)

		mmu := h.mmu
		var doms []iommu.DomainID
		for _, d := range h.Devices() {
			doms = append(doms, d.Domain().ID())
		}
		if len(doms) < 3 {
			t.Fatalf("%v: expected >= 3 domains (NIC + 2 storage), got %v", mode, doms)
		}
		var sum iommu.Counters
		for _, d := range doms {
			c := mmu.CountersOf(d)
			sum.Translations += c.Translations
			sum.IOTLBHits += c.IOTLBHits
			sum.IOTLBMisses += c.IOTLBMisses
			sum.Walks += c.Walks
			sum.MemReads += c.MemReads
			sum.L3Misses += c.L3Misses
			sum.L2Misses += c.L2Misses
			sum.L1Misses += c.L1Misses
			sum.Faults += c.Faults
			sum.StaleIOTLBUses += c.StaleIOTLBUses
			sum.StalePTUses += c.StalePTUses
			sum.InvRequests += c.InvRequests
			sum.IOTLBInvalidated += c.IOTLBInvalidated
			sum.PTInvalidated += c.PTInvalidated
		}
		if global := mmu.Counters(); sum != global {
			t.Fatalf("%v: per-domain counters don't sum to global:\n  sum:    %+v\n  global: %+v", mode, sum, global)
		}

		// Every device owns a distinct domain.
		seen := map[iommu.DomainID]string{}
		for _, d := range h.Devices() {
			id := d.Domain().ID()
			if prev, dup := seen[id]; dup {
				t.Fatalf("%v: devices %s and %s share domain %d", mode, prev, d.Name(), id)
			}
			seen[id] = d.Name()
		}
	}
}

// A second NIC declared in Topology runs a full independent
// datapath: its own domain, its own wire pair, real goodput — and the
// primary's top-level metrics remain the primary's alone.
func TestTopologyExtraNIC(t *testing.T) {
	h, err := New(Config{
		Mode:     core.FNS,
		Topology: Topology{NICs: []NICSpec{{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(5*sim.Millisecond, 15*sim.Millisecond)

	if len(r.Devices) != 2 {
		t.Fatalf("Devices rows = %d, want 2", len(r.Devices))
	}
	primary, second := r.Devices[0], r.Devices[1]
	if primary.Kind != "nic" || second.Kind != "nic" {
		t.Fatalf("kinds = %q/%q, want nic/nic", primary.Kind, second.Kind)
	}
	if second.GoodputGbps <= 0 {
		t.Fatalf("second NIC moved no bytes: %+v", second)
	}
	devs := h.Devices()
	if devs[0].Domain().ID() == devs[1].Domain().ID() {
		t.Fatal("both NICs attached to the same protection domain")
	}
	// Top-level RxGbps is the primary's share, not the host total.
	if r.RxGbps > primary.GoodputGbps+1 {
		t.Fatalf("top-level RxGbps (%.1f) includes the second NIC (primary %.1f)",
			r.RxGbps, primary.GoodputGbps)
	}
	if table := r.DeviceTable(); table == "" {
		t.Fatal("DeviceTable rendered empty")
	}
}
