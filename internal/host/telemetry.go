package host

import (
	"fmt"

	"fastsafe/internal/device"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// TelemetryConfig configures the host's observation layer. Everything it
// enables is strictly read-only over simulation state: probes never
// schedule work, mutate layers, or consume engine randomness, so any
// telemetry setting produces byte-identical simulation results to running
// without it (the golden tests lock this down).
type TelemetryConfig struct {
	// SampleEvery, when positive, runs the virtual-time sampler at this
	// interval, recording the per-interval time series behind
	// Results.Timeline (goodput, miss rates, walk reads, cwnd, core
	// utilisation, invalidation-queue depth, memory-bus utilisation).
	SampleEvery sim.Duration
	// TraceL3 records the primary NIC domain's PTcache-L3 reuse-distance
	// trace (the paper's locality figures).
	TraceL3 bool
	// TraceLimit caps the trace points kept (0 = unlimited).
	TraceLimit int

	// Registry, when non-nil, is the registry this host registers its
	// probe points into — a Cluster shares one registry across all its
	// hosts. nil (the default) gives the host a private registry.
	Registry *stats.Registry
	// Prefix is prepended to every instrument name the host registers
	// ("host3." in a cluster); empty for single-host runs.
	Prefix string
}

// Telemetry is the host's metrics spine: one Registry every simulator
// layer registers its typed probe points into, plus (when configured) the
// virtual-time Sampler recording time series across the run.
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
	h       *Host
	reg     *stats.Registry
	prefix  string
	sampler *stats.Sampler
}

// name applies the host's instrument-name prefix (empty outside clusters).
func (t *Telemetry) name(s string) string { return t.prefix + s }

// newTelemetry wires the registry over every layer already attached and,
// when sampling is configured, registers the timeline probes.
func newTelemetry(h *Host) *Telemetry {
	reg := h.cfg.Telemetry.Registry
	if reg == nil {
		reg = stats.NewRegistry()
	}
	t := &Telemetry{h: h, reg: reg, prefix: h.cfg.Telemetry.Prefix}
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
	if every := h.cfg.Telemetry.SampleEvery; every > 0 {
		t.sampler = stats.NewSampler(h.eng, every)
		t.addSamplerProbes()
	}
	return t
}

// addDevice registers one attached device's probe points: its protection
// domain (with allocator, page table, and attributed IOMMU counters), its
// device.Stats view, and — for NICs — the datapath, PCIe links and
// per-flow congestion state.
func (t *Telemetry) addDevice(d device.Device) {
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

// addSamplerProbes registers the timeline series. Probe order fixes the
// Series() order, so it is part of the output format.
func (t *Telemetry) addSamplerProbes() {
	h, s := t.h, t.sampler
	// Goodput accounting matches Results.RxGbps: primary-NIC bulk
	// deliveries, plus message payload when the local host is the client
	// (bulk inbound responses).
	goodput := func() int64 {
		b := h.net.c.rxDeliveredBytes
		if h.msgs != nil && h.msgs.cfg.Pattern == LocalClient {
			b += h.msgs.completedBytes
		}
		return b
	}
	s.Probe("rx_gbps", stats.GbpsProbe(goodput))
	s.Probe("tx_gbps", stats.GbpsProbe(func() int64 { return h.net.c.txDeliveredBytes }))
	// The miss-rate normaliser is Results.PagesRxed's: all payload moved
	// in the interval, in 4KB pages.
	s.Probe("iotlb_miss_per_pg", stats.PerPageProbe(
		func() int64 { return h.mmu.Counters().IOTLBMisses }, h.payloadBytes))
	s.Probe("ptcache_miss_per_pg", stats.PerPageProbe(
		func() int64 {
			c := h.mmu.Counters()
			return c.L1Misses + c.L2Misses + c.L3Misses
		}, h.payloadBytes))
	s.Probe("walk_reads", stats.DeltaProbe(func() int64 { return h.mmu.Counters().MemReads }))
	s.Probe("inv_reqs", stats.DeltaProbe(func() int64 { return h.mmu.Counters().InvRequests }))
	s.GaugeProbe("cwnd_mean", func() float64 {
		cwnd, _, _, _, _ := h.DebugFlows()
		return cwnd
	})
	var prevBusy []sim.Duration
	s.Probe("core_util_max", func(dt sim.Duration) float64 {
		var peak float64
		for i, c := range h.cores {
			var prev sim.Duration
			if i < len(prevBusy) {
				prev = prevBusy[i]
			}
			if u := float64(c.BusyTime()-prev) / float64(dt); u > peak {
				peak = u
			}
		}
		prevBusy = prevBusy[:0]
		for _, c := range h.cores {
			prevBusy = append(prevBusy, c.BusyTime())
		}
		return peak
	})
	s.GaugeProbe("invq_depth", func() float64 {
		var n int
		for _, d := range h.devices {
			n += d.Domain().PendingDeferred()
		}
		return float64(n)
	})
	s.GaugeProbe("mem_util", h.bus.PeekUtilization)
}

// Telemetry returns the host's metrics spine.
func (h *Host) Telemetry() *Telemetry { return h.tele }

// Registry returns the instrument registry.
func (t *Telemetry) Registry() *stats.Registry { return t.reg }

// Sampler returns the virtual-time sampler, nil unless SampleEvery was
// configured.
func (t *Telemetry) Sampler() *stats.Sampler { return t.sampler }

// Series returns every sampled time series over the whole run (warmup
// included); nil without sampling. Results.Timeline carries the same
// series restricted to the measurement window.
func (t *Telemetry) Series() []stats.Series {
	if t.sampler == nil {
		return nil
	}
	return t.sampler.Series()
}

// Histogram returns a registered histogram by host-local name (e.g.
// "rpc.latency_ns", "nic0.pcie.rx.latency_ns"), or nil when absent. In a
// cluster the host's prefix is applied before lookup.
func (t *Telemetry) Histogram(name string) *stats.Histogram {
	return t.reg.LookupHistogram(t.name(name))
}

// ReuseTrace returns the primary NIC domain's PTcache-L3 reuse-distance
// trace, nil unless TelemetryConfig.TraceL3 was set.
func (t *Telemetry) ReuseTrace() *stats.ReuseTrace { return t.h.net.dom.Trace() }
