// Package device defines the pluggable DMA-device layer: any model that
// attaches to a simulated host, owns a protection domain over the host's
// shared IOMMU, drives DMAs through a PCIe link and reports per-device
// counters. The paper's §1 motivation is that every DMA device on a host
// shares one IOMMU — one IOTLB, one set of page-table caches, shared
// walkers — so one device's invalidation traffic degrades another's
// datapath. This package is the seam that lets experiments attach N such
// devices (NICs, storage controllers, future RDMA/GPU models) to one
// host instead of the NIC-plus-hardwired-storage pair the simulator
// started with.
//
// internal/host provides the Host implementation and the NIC reference
// device; Storage in this package is the second reference device.
package device

import (
	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/pcie"
	"fastsafe/internal/sim"
)

// Host is the attachment surface a device sees: the event engine for
// time, and factories that wire new links and domains into the host's
// shared IOMMU, walkers and seed space. Implemented by *host.Host.
type Host interface {
	// Engine returns the discrete-event engine driving the simulation.
	Engine() *sim.Engine
	// NewLink creates a PCIe link with the host's fitted latency
	// parameters, attached to the host's shared page walkers.
	NewLink() *pcie.Link
	// NewDomain creates a protection domain over the shared IOMMU. The
	// host fills in SharedIOMMU and derives the domain's RNG seed from
	// its own seed plus seedOffset, so distinct devices get distinct but
	// deterministic free-pool shuffles. Errors on a mode with no
	// registered protection policy.
	NewDomain(cfg core.Config, seedOffset int64) (*core.Domain, error)
	// Exec schedules driver work on the host core cpu: work runs when
	// the core drains to it and returns the CPU time to charge; done (if
	// non-nil) runs after the work completes.
	Exec(cpu int, work func() sim.Duration, done func())
	// Faults returns the host's fault injector, nil when no fault plan
	// is active. Devices derive their misbehaviour hooks from it
	// (injector.Device(dom)); every derived hook is nil-safe, so devices
	// need no further guards.
	Faults() *fault.Injector
}

// Device is one DMA device attached to a host.
type Device interface {
	// Name identifies the device in per-device result breakdowns
	// ("nic0", "storage1").
	Name() string
	// Kind is the device class ("nic", "storage").
	Kind() string
	// Attach wires the device to the host: create its domain and links.
	// Called exactly once, before Start.
	Attach(h Host) error
	// Start begins the device's traffic: the host grants engine time by
	// calling this once at simulation start.
	Start()
	// Domain returns the device's protection domain (nil before Attach).
	// Per-device IOMMU counters are keyed by Domain().ID().
	Domain() *core.Domain
	// Stats reports the device's cumulative work.
	Stats() Stats
}

// Stats is the device-generic view of progress: completed DMA
// operations (packets delivered, blocks read) and the payload bytes
// they moved. Per-device translation behaviour (misses, walk reads,
// invalidations) comes from the shared IOMMU's per-domain counters, not
// from here.
type Stats struct {
	Ops   int64 // completed DMA operations
	Bytes int64 // payload bytes moved
}
