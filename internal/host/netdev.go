package host

import (
	"fmt"

	"fastsafe/internal/ats"
	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/fabric"
	"fastsafe/internal/nic"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// The NIC reference implementation of device.Device: the full §2.1
// network datapath — rings, Rx/Tx PCIe links, wire pair to an abstract
// remote host, DCTCP bulk flows (flow.go) — packaged so a Topology can
// attach any number of them to one host, each with its own protection
// domain over the shared IOMMU.

// NICSpec configures one NIC device in a Topology. Zero fields inherit
// the host Config's corresponding value; Mode is a pointer so that an
// explicit Off (a bypass device) is distinguishable from "inherit".
type NICSpec struct {
	Mode        *core.Mode // protection mode (nil = host Config.Mode)
	Cores       int        // cores serving bulk Rx flows
	RxFlows     int        // bulk flows in (-1 = none, 0 = Cores)
	TxFlows     int        // bulk flows out, one extra core each
	MTU         int        // data packet payload
	RingPackets int        // Rx ring strides per core
	LinkGbps    float64    // line rate of this NIC's wire pair
	// PeerSlots provisions extra Tx cores (and per-CPU IOVA magazines) for
	// cluster peer flows originating at this NIC. 0 — the single-host
	// default — changes nothing: core counts and cache layouts stay
	// bit-for-bit identical to the pre-fabric host.
	PeerSlots int
}

// resolve fills zero fields from the host config.
func (s NICSpec) resolve(cfg Config) NICSpec {
	if s.Cores <= 0 {
		s.Cores = cfg.Cores
	}
	if s.RxFlows < 0 {
		s.RxFlows = 0
	} else if s.RxFlows == 0 {
		s.RxFlows = s.Cores
	}
	if s.TxFlows < 0 {
		s.TxFlows = 0
	}
	if s.MTU <= 0 {
		s.MTU = cfg.MTU
	}
	if s.RingPackets <= 0 {
		s.RingPackets = cfg.RingPackets
	}
	if s.LinkGbps <= 0 {
		s.LinkGbps = cfg.LinkGbps
	}
	if s.PeerSlots < 0 {
		s.PeerSlots = 0
	}
	return s
}

// counters that the snapshot mechanism diffs across the warmup boundary.
type hostCounters struct {
	rxDeliveredBytes int64 // in-order transport deliveries into the local host
	txDeliveredBytes int64 // local bulk data delivered in-order at the remote
	acksSent         int64 // ACK packets generated locally
}

// netDev is one NIC attached to the host. Flow cpu indices are
// device-local (0-based); cpuBase maps them onto host cores, so the
// primary NIC (cpuBase 0) keeps the legacy core layout and additional
// NICs land on their own core range.
type netDev struct {
	h       *Host
	name    string
	spec    NICSpec
	mode    core.Mode
	cpuBase int
	seedOff int64
	primary bool

	dom    *core.Domain
	rx, tx *pcie.Link
	dev    *nic.NIC

	toLocal  *fabric.Link // remote -> local
	toRemote *fabric.Link // local -> remote

	// flows holds the flows this NIC drives: its abstract-remote flows
	// (Rx, then Tx), whose both ends it runs, then the cluster flows it
	// sources. sinks holds the cluster flows it sinks; empty in
	// single-host runs.
	flows []*flow
	sinks []*flow

	lastDeferredFlush sim.Time

	c hostCounters
}

// netExec lets the NIC schedule driver work on host cores, offsetting
// the device-local ring index by the device's core base.
type netExec struct{ n *netDev }

func (e netExec) Do(cpu int, work func() sim.Duration, done func()) {
	e.n.h.core(e.n.cpuBase+cpu).Do(work, done)
}

// Name implements device.Device.
func (n *netDev) Name() string { return n.name }

// Kind implements device.Device.
func (n *netDev) Kind() string { return "nic" }

// Domain implements device.Device.
func (n *netDev) Domain() *core.Domain { return n.dom }

// Stats implements device.Device: bulk payload delivered in order on
// either side of this NIC's wire pair.
func (n *netDev) Stats() device.Stats {
	st := n.dev.Stats()
	return device.Stats{
		Ops:   st.RxDMAs + st.TxDMAs,
		Bytes: n.c.rxDeliveredBytes + n.c.txDeliveredBytes,
	}
}

// Attach implements device.Device. The NIC datapath needs the concrete
// host (cores, config, message dispatch), not just the device.Host
// surface.
func (n *netDev) Attach(dh device.Host) error {
	h, ok := dh.(*Host)
	if !ok {
		return fmt.Errorf("host: netDev must attach to *host.Host, got %T", dh)
	}
	n.h = h
	cfg := h.cfg
	dom, err := h.NewDomain(core.Config{
		Mode:            n.mode,
		NumCPUs:         n.spec.Cores + n.spec.TxFlows + n.spec.PeerSlots + 8, // slack for app cores
		DescriptorPages: cfg.DescriptorPages,
		Costs:           cfg.Costs,
		TxFreeCPUShift:  1,    // Tx-completion IRQ lands on a neighbouring core
		FreePoolSize:    8192, // app threads release buffers out of order
		// The primary NIC takes the IOMMU's default domain 0, keeping the
		// legacy single-NIC cache indexing bit-for-bit.
		DefaultDomain: n.primary,
		TraceL3:       cfg.Telemetry.TraceL3 && n.primary,
		TraceLimit:    cfg.Telemetry.TraceLimit,
		ATS:           ats.Config{Entries: cfg.ATSEntries},
	}, n.seedOff)
	if err != nil {
		return fmt.Errorf("host: %w", err)
	}
	n.dom = dom
	// The auditor re-walks device-cached translations too (nil-safe on
	// both sides: no auditor, or no ATC attached).
	h.aud.AttachATC(n.dom.ID(), n.dom.ATC())
	n.rx = h.NewLink()
	n.tx = h.NewLink()
	n.toLocal = fabric.NewLink(h.eng, n.spec.LinkGbps, cfg.PropDelay)
	n.toLocal.SetECN(cfg.ECNKBytes)
	n.toRemote = fabric.NewLink(h.eng, n.spec.LinkGbps, cfg.PropDelay)
	n.toRemote.SetECN(cfg.ECNKBytes)

	dev, err := nic.New(h.eng, nic.Config{
		Cores:       n.spec.Cores + n.spec.TxFlows + n.spec.PeerSlots + 8,
		MTU:         n.spec.MTU,
		RingPackets: n.spec.RingPackets,
		BufferBytes: cfg.NICBufferBytes,
		ECNKBytes:   -1, // ECN marks come from the switch, not the NIC
		// One-sided DMA terminates at the device, so its buffer is the
		// congestion point — mark there (the CNP analog) at the DCTCP K.
		DirectECNKBytes: cfg.ECNKBytes,
		Faults:          h.Faults().Device(n.dom),
	}, n.dom, n.rx, n.tx, netExec{n})
	if err != nil {
		return fmt.Errorf("host: %w", err)
	}
	n.dev = dev
	dev.OnDeliver = n.onDeliver
	dev.OnTxDone = n.onTxDone

	// Legacy bulk flows terminate at the abstract remote host: the local
	// state machine binds (host, AbstractPeer), its far end the mirror.
	toLocal, toRemote := path{wire: n.toLocal}, path{wire: n.toRemote}
	for i := 0; i < n.spec.RxFlows; i++ {
		f := &flow{id: i, mtu: n.spec.MTU, dst: n, dstCPU: i % n.spec.Cores,
			fwd: toLocal, rev: toRemote, start: sim.Time(i) * sim.Microsecond}
		f.open(cfg.Transport)
		n.flows = append(n.flows, f)
	}
	for j := 0; j < n.spec.TxFlows; j++ {
		f := &flow{id: j, mtu: n.spec.MTU, src: n, srcCPU: n.spec.Cores + j,
			fwd: toRemote, rev: toLocal, start: sim.Time(j) * sim.Microsecond}
		f.open(cfg.Transport)
		n.flows = append(n.flows, f)
	}
	return nil
}

// Start implements device.Device: launch the configured bulk flows.
// WRITE streams from the source at start; READ first posts the work
// request from the initiating sink, which kicks the source remotely.
func (n *netDev) Start() {
	for _, f := range n.flows {
		if f.op != transport.Read {
			n.h.eng.At(f.start, f.pump)
		}
	}
	for _, f := range n.sinks {
		if f.op == transport.Read {
			n.h.eng.At(f.start, f.postRead)
		}
	}
}

// stackCost returns the per-packet network-stack CPU cost, inflated for
// large rings (prefetcher inefficiency, §4.4).
func (n *netDev) stackCost() sim.Duration {
	c := float64(n.h.cfg.StackCost)
	ring := float64(n.spec.RingPackets)
	for r := 256.0; r < ring; r *= 2 {
		c += float64(n.h.cfg.StackCost) * n.h.cfg.RingCPUFactor
	}
	return sim.Duration(c)
}

// flowHousekeeping fires RTO checks and delayed-ACK flushes for this
// NIC's flows: both ends of each abstract-remote flow, flow by flow, then
// the source end of every cluster flow it sources and the sink end of
// every one it sinks.
func (n *netDev) flowHousekeeping(now sim.Time) {
	for _, f := range n.flows {
		if f.snd.MaybeTimeout(now) {
			f.pump()
		}
		if f.src == nil || f.dst == nil {
			f.flushAck()
		}
	}
	for _, f := range n.sinks {
		f.flushAck()
	}
}

// deferredFlush is the deferred-mode timer flush of this NIC's domain.
// Linux lazy mode also flushes on a timer, not just the 256-entry
// threshold (10ms in the kernel); the period is a runtime knob.
func (n *netDev) deferredFlush(now sim.Time) {
	if now-n.lastDeferredFlush >= n.dom.Knobs().FlushInterval {
		n.lastDeferredFlush = now
		if cost := n.dom.FlushDeferred(); cost > 0 {
			n.h.core(n.cpuBase).Do(func() sim.Duration { return cost }, nil)
		}
	}
}

// sendTx queues a locally built packet on its device-local core: the core
// pays cost plus the Tx mapping of the payload's pages, then the NIC DMAs
// it out. A stack ACK is counted, and a flow's queued send released,
// when the core gets to it.
func (n *netDev) sendTx(pkt nic.Packet, cost sim.Duration) {
	j := &txJob{n: n, pkt: pkt, cost: cost}
	n.h.core(n.cpuBase+pkt.CPU).Do(j.mapTx, j.send)
}

// txJob is one sendTx in flight: the core work that maps the packet, then
// the hand-off to the NIC.
type txJob struct {
	n    *netDev
	pkt  nic.Packet
	cost sim.Duration
	m    *core.TxMapping
}

func (j *txJob) mapTx() sim.Duration {
	tm, mc, err := j.n.dom.MapTx(j.pkt.CPU, (j.pkt.Bytes+ptable.PageSize-1)/ptable.PageSize)
	if err != nil {
		panic(fmt.Sprintf("host: MapTx(%T): %v", j.pkt.Payload, err))
	}
	j.m = tm
	if _, ok := j.pkt.Payload.(ackSeg); ok {
		j.n.c.acksSent++
	}
	return j.cost + mc
}

func (j *txJob) send() {
	if seg, ok := j.pkt.Payload.(dataSeg); ok {
		seg.f.sendQueued--
	}
	j.n.dev.SendTx(j.pkt, j.m)
}

// arriveFromRemote carries a packet from the abstract remote host over
// this NIC's wire pair into its input buffer.
func (n *netDev) arriveFromRemote(cpu, bytes int, payload any) {
	path{wire: n.toLocal}.arrive(n.dev, cpu, bytes, payload)
}

// onDeliver handles a packet whose DMA into local memory completed.
func (n *netDev) onDeliver(pkt nic.Packet) {
	h := n.h
	// Memory traffic: the DMA write (unless DDIO lands it in LLC) plus the
	// stack/application copying the payload in and out.
	if !h.cfg.DDIO {
		h.bus.Consume(pkt.Bytes)
	}
	// One-sided writes land in application memory with no stack or
	// application copy; everything else pays the copy in and out.
	if seg, ok := pkt.Payload.(dataSeg); !ok || !seg.f.op.OneSided() {
		h.bus.Consume(2 * pkt.Bytes)
	}
	switch p := pkt.Payload.(type) {
	case dataSeg:
		p.f.onData(p.seq, pkt.ECN)
	case ackSeg:
		p.f.onAck(p.ack)
	case msgSeg:
		h.msgs.onDeliver(pkt, p)
	case serveSeg:
		h.serve.onDeliver(pkt, p)
	default:
		panic(fmt.Sprintf("host: unknown Rx payload %T", pkt.Payload))
	}
}

// onTxDone handles completion of a local Tx DMA: the driver unmaps the
// buffer (strict safety) and the packet goes onto the wire.
func (n *netDev) onTxDone(pkt nic.Packet, m *core.TxMapping) {
	h := n.h
	if !h.cfg.DDIO {
		h.bus.Consume(pkt.Bytes) // the DMA read
	}
	if m != nil {
		h.core(n.cpuBase+pkt.CPU).Do(func() sim.Duration {
			cost, err := n.dom.UnmapTx(m)
			if err != nil {
				panic(fmt.Sprintf("host: UnmapTx: %v", err))
			}
			return cost
		}, nil)
	}
	switch p := pkt.Payload.(type) {
	case dataSeg:
		p.f.toSink(pkt.Bytes, pkt.Payload, p.seq)
	case ackSeg:
		p.f.toSource(pkt.Bytes, pkt.Payload, p.ack)
	case msgSeg:
		h.msgs.onTxDone(pkt, p)
	case serveSeg:
		h.serve.onTxDone(pkt, p)
	default:
		panic(fmt.Sprintf("host: unknown Tx payload %T", pkt.Payload))
	}
}
