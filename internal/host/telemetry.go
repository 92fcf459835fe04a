package host

import (
	"fmt"

	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// TelemetryConfig configures the host's observation layer. Everything it
// enables is strictly read-only over simulation state: probes and
// timeline ticks schedule no work (a tick only its successor), mutate no
// layer and consume no engine randomness, so any telemetry setting
// produces byte-identical simulation results to running without it (the
// golden tests lock this down).
type TelemetryConfig struct {
	// SampleEvery, when positive, appends one Sample to the timeline at
	// this interval of virtual time; Results.Timeline is the window's
	// share of it.
	SampleEvery sim.Duration
	// TraceL3 records the primary NIC domain's PTcache-L3 reuse-distance
	// trace (the paper's locality figures).
	TraceL3 bool
	// TraceLimit caps the trace points kept (0 = unlimited).
	TraceLimit int
}

// Telemetry is the host's metrics spine: one Registry every simulator
// layer registers its typed probe points into. A standalone host owns
// its registry; the hosts of a cluster shard share theirs, each naming
// its instruments under its "hostN." prefix.
//
// Layer namespaces in the registry:
//
//	engine.*            event-loop progress (fired, pending)
//	iommu.*             shared translation hardware: counters + occupancy
//	mem.*               memory-bus utilisation and traffic
//	walker.*            shared page-table walker reads
//	<dev>.*             per-device domain counters (dev = nic0, storage0, ...)
//	<dev>.iommu.*       the device's attributed slice of the shared IOMMU
//	<dev>.iova.*        the device domain's IOVA-allocator work
//	<dev>.ptable.*      the device domain's IO page-table size
//	<dev>.pcie.rx.*     the NIC's Rx PCIe link (incl. latency_ns histogram)
//	<dev>.pcie.tx.*     likewise for Tx
//	<dev>.ats.*         the NIC's device-side ATS cache (only with an ATC)
//	<dev>.flow<i>.*     congestion state of Rx bulk flow i (from the abstract remote)
//	<dev>.txflow<i>.*   likewise for Tx bulk flow i (to the abstract remote)
//	<dev>.peerflow<i>.* likewise for two-sided cluster flow i the NIC sources
//	<dev>.rdmaflow<i>.* likewise for one-sided RDMA cluster flow i the NIC sources
//	rpc.*               request/response workload (latency_ns histogram)
//	serve.*             serving fleet (latency_ns histogram, churn tallies)
//	fault.*             injected-fault tallies (only with a fault plan)
//	audit.*             translation safety audit (only when auditing)
type Telemetry struct {
	reg    *stats.Registry
	prefix string
}

// name applies the host's instrument-name prefix (empty outside clusters).
func (t *Telemetry) name(s string) string { return t.prefix + s }

// newTelemetry wires the registry over every layer already built.
func newTelemetry(h *Host) *Telemetry {
	reg := h.pl.reg
	if reg == nil {
		reg = stats.NewRegistry()
	}
	t := &Telemetry{reg: reg, prefix: h.pl.prefix}
	r := t.reg
	r.GaugeFunc(t.name("engine.fired"), func() float64 { return float64(h.eng.Fired()) })
	r.GaugeFunc(t.name("engine.pending"), func() float64 { return float64(h.eng.Pending()) })
	h.mmu.RegisterProbes(r, t.name("iommu."))
	h.bus.RegisterProbes(r, t.name("mem."))
	h.walker.RegisterProbes(r, t.name("walker."))
	h.inj.RegisterProbes(r, t.name("fault.")) // nil-safe: absent without a plan
	h.aud.RegisterProbes(r, t.name("audit.")) // nil-safe: absent unless auditing
	for _, d := range h.devices {
		t.addDevice(d)
	}
	return t
}

// addDevice registers one device's probe points: its protection domain
// (with allocator, page table, and attributed IOMMU counters), its
// DeviceStats, and — for NICs — the datapath, PCIe links and per-flow
// congestion state.
func (t *Telemetry) addDevice(d Device) {
	name := t.name(d.Name())
	d.Domain().RegisterProbes(t.reg, name+".")
	t.reg.GaugeFunc(name+".ops", func() float64 { return float64(d.Stats().Ops) })
	t.reg.GaugeFunc(name+".bytes", func() float64 { return float64(d.Stats().Bytes) })
	n, ok := d.(*netDev)
	if !ok {
		return
	}
	n.dev.RegisterProbes(t.reg, name+".")
	n.rx.RegisterProbes(t.reg, name+".pcie.rx.")
	n.tx.RegisterProbes(t.reg, name+".pcie.tx.")
	if atc := n.dom.ATC(); atc != nil {
		atc.RegisterProbes(t.reg, name+".ats.")
	}
	for _, f := range n.flows {
		t.addFlow(n, f)
	}
}

// addFlow registers the sender state of a flow NIC n drives: at
// telemetry construction for the flows it attached with, later for
// cluster flows as they connect.
func (t *Telemetry) addFlow(n *netDev, f *flow) {
	f.snd.RegisterProbes(t.reg, fmt.Sprintf("%s.%s%d.", t.name(n.name), f.kind(), f.id))
}

// Telemetry returns the host's metrics spine.
func (h *Host) Telemetry() *Telemetry { return h.tele }

// Registry returns the instrument registry.
func (t *Telemetry) Registry() *stats.Registry { return t.reg }
