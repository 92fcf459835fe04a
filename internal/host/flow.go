package host

import (
	"fmt"

	"fastsafe/internal/core"
	"fastsafe/internal/fabric"
	"fastsafe/internal/nic"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// Bulk flows: one engine for every DCTCP transfer the package runs. A
// flow couples a transport.Sender at its source with a
// transport.Receiver at its sink. Each end is a detailed NIC or nil, the
// abstract remote host at the far end of a NIC's wire pair: an
// infinitely fast CPU and no IOMMU. A detailed sender pays stack CPU, Tx
// map/unmap and Tx DMA translation on its own IOMMU; a detailed receiver
// pays Rx DMA translation, stack CPU and ACK-generation costs on its
// own. The ends are joined by that wire pair or, in a Cluster, by two
// switched-fabric ports that every packet (data and ACKs alike) crosses.
//
// The flow's transport.Op picks the datapath. SendRecv runs the
// two-sided stack path above. A one-sided READ/WRITE instead resolves
// the remote buffer in the remote *NIC*: the initiator streams into (or
// out of) a registered memory window, the target NIC translates each
// frame through its device-side ATS cache, and acknowledgements are
// hardware-generated. The remote CPU shows up only at
// memory-registration boundaries, when the window's chunks are recycled
// (unmap + fresh map under the host's protection mode) — which is
// exactly where the safety question lives: a mode that skips the ATC
// shoot-down on unmap leaves the device TLB serving stale translations.
// For WRITE the source is the initiator; for READ the sink posts a
// one-time work request to the source NIC and the data path is then
// identical.

// maxQueuedSends bounds the CPU-queue work a two-sided sender keeps
// outstanding.
const maxQueuedSends = 64

// flow couples a DCTCP sender at the data source with a receiver at the
// data sink.
type flow struct {
	id  int // NIC-local index (abstract-remote flows) or cluster-wide index
	op  transport.Op
	mtu int

	src, dst       *netDev // detailed ends; nil is the abstract remote
	srcCPU, dstCPU int     // device-local core indices of the detailed ends
	fwd, rev       path    // source -> sink, sink -> source

	snd *transport.Sender   // runs at src
	rcv *transport.Receiver // runs at dst (in the sink NIC when one-sided)

	// One-sided flows only: the window streamed from (registered once,
	// never recycled) and the window landed into (chunks recycle behind
	// the ack point).
	srcMR, dstMR *mrWindow

	start sim.Time // staggered first pump (or READ request post)

	// sendQueued bounds the CPU-queue work outstanding for this flow.
	sendQueued int
	flushArmed bool // delayed-ACK timer pending at the sink
}

// Payload types carried in nic.Packet.Payload by flows. One-sided ACKs
// are NIC-generated and never enter a datapath, so they need none.
type dataSeg struct { // bulk data, source -> sink
	f   *flow
	seq int64
}
type ackSeg struct { // stack-built or abstract-remote ACK, sink -> source
	f   *flow
	ack transport.Ack
}

// path is one direction of a flow's route: one wire of a NIC's pair to
// the abstract remote, or a fabric port toward another port.
type path struct {
	wire *fabric.Link
	port *fabric.Port
	to   int // destination port ID
}

func (p path) send(bytes int, deliver func(ecn bool)) {
	if p.wire != nil {
		p.wire.Send(bytes, deliver)
		return
	}
	p.port.Send(p.to, bytes, deliver)
}

// arrive carries a packet along p into dev's input buffer, marked as the
// path marked it.
func (p path) arrive(dev *nic.NIC, cpu, bytes int, payload any) {
	p.send(bytes, func(ecn bool) {
		dev.Arrive(nic.Packet{CPU: cpu, Bytes: bytes, ECN: ecn, Payload: payload})
	})
}

// open builds the flow's transport ends with params p and binds them to
// the hosts at either end (transport.AbstractPeer for the abstract
// remote).
func (f *flow) open(p transport.Params) {
	src, dst := endpointHost(f.src), endpointHost(f.dst)
	f.snd = transport.NewSender(p)
	f.rcv = transport.NewReceiver(p)
	f.snd.Bind(transport.Endpoint{Host: src, Peer: dst})
	f.rcv.Bind(transport.Endpoint{Host: dst, Peer: src})
}

func endpointHost(n *netDev) int {
	if n == nil {
		return transport.AbstractPeer
	}
	return n.h.cfg.HostID
}

// kind names the flow's probe namespace under its NIC: <dev>.<kind><id>.
func (f *flow) kind() string {
	switch {
	case f.src == nil:
		return "flow"
	case f.dst == nil:
		return "txflow"
	case f.op.OneSided():
		return "rdmaflow"
	}
	return "peerflow"
}

// connect wires a cluster flow whose data goes from this host's primary
// NIC to dst's through the given fabric ports; op picks the two-sided
// stack datapath or a one-sided verb. srcCPU/dstCPU are device-local
// core indices on the two NICs — for a one-sided flow touched only at
// registration boundaries and ACK completions, never per packet. Call
// before Start; the Cluster does this for every (src, dst) pair its
// traffic pattern names.
func (h *Host) connect(dst *Host, srcPort, dstPort *fabric.Port, op transport.Op, id, srcCPU, dstCPU int, start sim.Time) {
	f := &flow{
		id:     id,
		op:     op,
		mtu:    h.net.spec.MTU,
		src:    h.net,
		dst:    dst.net,
		srcCPU: srcCPU,
		dstCPU: dstCPU,
		fwd:    path{port: srcPort, to: dstPort.ID()},
		rev:    path{port: dstPort, to: srcPort.ID()},
		start:  start,
	}
	p := h.cfg.Transport
	if op.OneSided() {
		// The remote end of a one-sided flow is a device buffer, not a CPU
		// ring: bound the outstanding payload to half the sink's input
		// buffer (RDMA NICs cap outstanding WQE data the same way) so a
		// slow translation path surfaces as ECN marks instead of tail
		// drops, and floor the retransmission timer at device scale — NIC
		// timers run far below the stack's 5ms, which would outlast a run.
		stride := dst.net.dev.FrameStride(f.mtu)
		if max := float64(dst.cfg.NICBufferBytes) / float64(2*stride); p.MaxCwnd == 0 || p.MaxCwnd > max {
			p.MaxCwnd = max
		}
		if p.RTOMin == 0 || p.RTOMin > sim.Millisecond {
			p.RTOMin = sim.Millisecond
		}
	}
	f.open(p)
	if op.OneSided() {
		f.srcMR = h.net.newMRWindow(srcCPU, f.mtu)
		f.dstMR = dst.net.newMRWindow(dstCPU, f.mtu)
	}
	h.net.flows = append(h.net.flows, f)
	dst.net.sinks = append(dst.net.sinks, f)
	if h.tele != nil {
		h.tele.addFlow(h.net, f)
	}
}

// pump lets the sender transmit while its window allows. The abstract
// remote's CPU is not modelled (it is never the bottleneck in the
// paper's receive-side experiments), so its segments go straight onto
// the wire. A one-sided source does no CPU work per frame either: the
// NIC reads the registered buffer directly (translating through its ATC
// when one is attached) and the frame goes onto the fabric from Tx
// completion. A two-sided source pays stack CPU plus the Tx mapping for
// each segment, then a NIC Tx DMA.
func (f *flow) pump() {
	n := f.src
	if n == nil {
		n = f.dst // the abstract remote runs on the clock of the NIC it hangs off
	}
	for f.snd.CanSend() && f.sendQueued < maxQueuedSends {
		seq, _ := f.snd.NextSend()
		f.snd.OnSent(seq, n.h.eng.Now())
		seg := dataSeg{f: f, seq: seq}
		switch {
		case f.src == nil:
			f.toSink(f.mtu, seg, seq)
		case f.op.OneSided():
			iovas, start := f.srcMR.frame(seq)
			n.dev.SendTxDirect(nic.Packet{CPU: f.srcCPU, Bytes: f.mtu, Payload: seg}, iovas, start)
		default:
			f.sendQueued++
			n.sendTx(nic.Packet{CPU: f.srcCPU, Bytes: f.mtu, Payload: seg}, n.h.cfg.StackCost)
		}
	}
}

// postRead posts the one-time READ work request from the initiator (the
// data sink): one stack invocation, a 64-byte request across the fabric,
// and the source NIC starts streaming — its CPU never sees the request.
func (f *flow) postRead() {
	n := f.dst
	n.h.core(n.cpuBase+f.dstCPU).Do(func() sim.Duration {
		return n.h.cfg.StackCost
	}, func() {
		f.rev.send(64, func(bool) { f.pump() })
	})
}

// toSink carries a data segment that left the source toward the sink.
// The abstract remote receives it on arrival. A one-sided frame lands as
// a direct DMA into the target window — no ring, no descriptor
// recycling, no per-packet remote CPU. A two-sided segment arrives like
// any other packet, through the sink's Rx datapath.
func (f *flow) toSink(bytes int, payload any, seq int64) {
	switch {
	case f.dst == nil:
		f.fwd.send(bytes, func(ecn bool) { f.ackOrArm(f.receive(seq, ecn)) })
	case f.op.OneSided():
		f.fwd.send(bytes, func(ecn bool) {
			iovas, start := f.dstMR.frame(seq)
			f.dst.dev.DirectRx(nic.Packet{CPU: f.dstCPU, Bytes: bytes, ECN: ecn, Payload: payload}, iovas, start)
		})
	default:
		f.fwd.arrive(f.dst.dev, f.dstCPU, bytes, payload)
	}
}

// onData handles a data segment whose DMA into the sink's memory
// completed. One-sided, everything here is NIC-side: transport state,
// goodput accounting and the hardware ACK cost no sink CPU cycles.
func (f *flow) onData(seq int64, ecn bool) {
	if f.op.OneSided() {
		f.ackOrArm(f.receive(seq, ecn))
		return
	}
	n := f.dst
	irq := n.h.irqCost(n.cpuBase + f.dstCPU)
	var ack *transport.Ack
	n.h.core(n.cpuBase+f.dstCPU).Do(func() sim.Duration {
		ack = f.receive(seq, ecn)
		return irq + n.stackCost()
	}, func() {
		f.ackOrArm(ack)
	})
}

// receive runs the sink's transport over one data segment, accounts the
// payload it delivered in order and returns the ACK due now, if any.
// Goodput lands at the receiver; the sender's Tx accounting mirrors it
// (delivery is what the paper's goodput counts). The abstract receiver
// has no host of its own, so its deliveries are the local sender's Tx
// goodput.
func (f *flow) receive(seq int64, ecn bool) *transport.Ack {
	delivered, ack := f.rcv.OnData(seq, ecn)
	bytes := delivered * int64(f.mtu)
	if f.dst == nil {
		f.src.c.txDeliveredBytes += bytes
		return ack
	}
	f.dst.c.rxDeliveredBytes += bytes
	f.creditPeerTx(bytes)
	if delivered > 0 && f.dstMR != nil {
		f.maybeRecycleMR()
	}
	return ack
}

// creditPeerTx mirrors delivered cluster-flow bytes into the sending
// host's Tx accounting. Same-engine clusters apply it inline — exactly
// the legacy behaviour. Sharded clusters post it to the sender's shard,
// where it lands at the next synchronization barrier: the increment is
// commutative bookkeeping whose timing only mid-window sampler reads can
// observe, never simulated behaviour, and every post is drained before a
// window's clocks align, so Results are unchanged.
func (f *flow) creditPeerTx(bytes int64) {
	src := f.src
	if src == nil || bytes == 0 {
		return
	}
	if post := f.dst.h.shardPost; post != nil {
		post(src.h, func() { src.c.txDeliveredBytes += bytes })
		return
	}
	src.c.txDeliveredBytes += bytes
}

// ackOrArm sends the ACK the receiver just produced or, when it is
// coalescing, arms the delayed-ACK timer.
func (f *flow) ackOrArm(ack *transport.Ack) {
	if ack != nil {
		f.sendAck(*ack)
	} else {
		f.armFlush()
	}
}

// armFlush schedules a delayed-ACK flush at the sink, modelling the ACK a
// real stack emits at the end of a NAPI batch (a one-sided sink NIC runs
// the same timer in hardware).
func (f *flow) armFlush() {
	if f.flushArmed {
		return
	}
	f.flushArmed = true
	n := f.dst
	if n == nil {
		n = f.src // the abstract remote runs on the clock of the NIC it hangs off
	}
	n.h.eng.After(n.h.cfg.DelAck, func() {
		f.flushArmed = false
		f.flushAck()
	})
}

// flushAck sends the receiver's coalesced ACK, if one is pending.
func (f *flow) flushAck() {
	if ack := f.rcv.FlushAck(); ack != nil {
		f.sendAck(*ack)
	}
}

// sendAck emits an ACK from the sink. The abstract receiver puts it
// straight onto the wire back into the local host. A one-sided sink NIC
// generates it in hardware: a 64-byte frame straight onto the fabric, no
// CPU, no Tx mapping, landing at the source as a completion. A two-sided
// sink's stack pays CPU to build and map it, then a NIC Tx DMA.
func (f *flow) sendAck(ack transport.Ack) {
	switch {
	case f.dst == nil:
		f.rev.arrive(f.src.dev, f.srcCPU, 64, ackSeg{f: f, ack: ack})
	case f.op.OneSided():
		f.dst.c.acksSent++
		f.rev.send(64, func(bool) { f.onAck(ack) })
	default:
		f.dst.sendTx(nic.Packet{CPU: f.dstCPU, Bytes: 64, Payload: ackSeg{f: f, ack: ack}}, f.dst.h.cfg.AckTxCost)
	}
}

// toSource carries an ACK that left the sink's NIC toward the source: the
// abstract remote takes it on arrival; a detailed source receives it
// through its Rx datapath like any other packet.
func (f *flow) toSource(bytes int, payload any, ack transport.Ack) {
	if f.src == nil {
		f.rev.send(bytes, func(bool) { f.onAck(ack) })
		return
	}
	f.rev.arrive(f.src.dev, f.srcCPU, bytes, payload)
}

// onAck lands an ACK at the source, which re-arms the stream. The
// abstract remote processes it at once; a detailed source's core pays
// the ACK processing first (for a one-sided flow, the completion
// surfacing to the initiating core as a CQE poll).
func (f *flow) onAck(ack transport.Ack) {
	n := f.src
	if n == nil {
		f.snd.OnAck(ack, f.dst.h.eng.Now())
		f.pump()
		return
	}
	n.h.core(n.cpuBase+f.srcCPU).Do(func() sim.Duration {
		f.snd.OnAck(ack, n.h.eng.Now())
		return n.h.cfg.AckRxCost
	}, f.pump)
}

// rdmaWindowChunks sizes each registered window: chunks × descriptor
// pages. 16 chunks of 64 pages (256 KB each at 4 KB pages) comfortably
// exceed the transport's maximum window, so the sender can never lap a
// chunk that is still being recycled.
const rdmaWindowChunks = 16

// mrWindow is a registered memory region the one-sided verbs target: a
// ring of descriptor chunks addressed by absolute frame sequence
// number, packed at the same stride the Rx rings use.
type mrWindow struct {
	chunks    []*core.Descriptor
	stride    int   // frame slot stride in bytes
	framesPer int   // frame slots per chunk
	recycled  int64 // chunk ordinals recycled so far (sink side only)
}

// frame maps an absolute sequence number to the window pages and byte
// offset its DMA targets.
func (w *mrWindow) frame(seq int64) (iovas []ptable.IOVA, start int) {
	slot := int((seq / int64(w.framesPer)) % int64(len(w.chunks)))
	return w.chunks[slot].IOVAs, int(seq%int64(w.framesPer)) * w.stride
}

// newMRWindow registers a window on this device's domain: the mapping
// happens at connection setup, before the clock runs, so it costs
// nothing — exactly like ring and descriptor pre-population.
func (n *netDev) newMRWindow(cpu, mtu int) *mrWindow {
	w := &mrWindow{stride: n.dev.FrameStride(mtu)}
	for i := 0; i < rdmaWindowChunks; i++ {
		desc, _, err := n.dom.MapRxDescriptor(cpu)
		if err != nil {
			panic(fmt.Sprintf("host: MapRx(rdma window): %v", err))
		}
		w.chunks = append(w.chunks, desc)
	}
	w.framesPer = len(w.chunks[0].IOVAs) * ptable.PageSize / w.stride
	return w
}

// maybeRecycleMR rotates sink window chunks the cumulative ack point
// has fully passed: the driver re-points the chunk's fixed IOVAs at
// fresh application buffers under the host's protection mode, paying
// that mode's invalidation costs — including the ATC shoot-down when
// the device caches translations. This is the one place a one-sided
// flow touches the remote CPU, and the place an unsafe mode leaves the
// device TLB serving translations to memory the window no longer owns.
func (f *flow) maybeRecycleMR() {
	n, w := f.dst, f.dstMR
	for f.rcv.RcvNxt() >= (w.recycled+1)*int64(w.framesPer) {
		ord := w.recycled
		w.recycled++
		slot := int(ord % int64(len(w.chunks)))
		n.h.core(n.cpuBase+f.dstCPU).Do(func() sim.Duration {
			cost, err := n.dom.RemapRxDescriptor(w.chunks[slot])
			if err != nil {
				panic(fmt.Sprintf("host: RemapRx(rdma window): %v", err))
			}
			return cost
		}, nil)
	}
}
