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

	// pump and flushTimer, bound once.
	pumpFn, flushFn func()
	// The flow's two fabric endpoints: data lands at the sink, ACKs at
	// the source.
	data dataEnd
	acks ackEnd
}

// dataEnd and ackEnd are a flow's fabric endpoints, bound once in the
// flow: its data segments (source -> sink) land at the first, its ACKs
// (sink -> source) at the second. On a wire or through the fabric a
// packet carries one as its endpoint; in a NIC a segment carries its
// *flow as the payload and a stack-built or abstract-remote ACK its
// *ackEnd. Each is a pointer, so no packet boxes a value. A segment's
// number rides in the packet's Seq, and so does an ACK, packed by
// ackWord. A one-sided ACK is NIC-generated and never enters a datapath.
type dataEnd struct{ f *flow }
type ackEnd struct{ f *flow }

// ackWord packs an ACK into the one word a packet carries for its
// endpoint: the cumulative ACK above the echo and duplicate bits.
func ackWord(a transport.Ack) int64 {
	w := a.CumAck << 2
	if a.ECNEcho {
		w |= 2
	}
	if a.Dup {
		w |= 1
	}
	return w
}

// wordAck unpacks ackWord's word.
func wordAck(w int64) transport.Ack {
	return transport.Ack{CumAck: w >> 2, ECNEcho: w&2 != 0, Dup: w&1 != 0}
}

// path is one direction of a flow's route: one wire of a NIC's pair to
// the abstract remote, or a fabric port toward another port.
type path struct {
	wire *fabric.Link
	port *fabric.Port
	to   int // destination port ID
}

func (p path) send(pkt fabric.Packet) {
	if p.wire != nil {
		p.wire.SendPacket(pkt)
		return
	}
	p.port.SendPacket(p.to, pkt)
}

// open builds the flow's transport ends with params p.
func (f *flow) open(p transport.Params) {
	f.snd = transport.NewSender(p)
	f.rcv = transport.NewReceiver(p)
	f.pumpFn, f.flushFn = f.pump, f.flushTimer
	f.data.f, f.acks.f = f, f
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
	var p transport.Params
	if op.OneSided() {
		// The remote end of a one-sided flow is a device buffer, not a CPU
		// ring: bound the outstanding payload to half the sink's input
		// buffer (RDMA NICs cap outstanding WQE data the same way) so a
		// slow translation path surfaces as ECN marks instead of tail
		// drops, and set the retransmission timer at device scale — NIC
		// timers run far below the stack's 5ms, which would outlast a run.
		stride := nic.FrameStride(f.mtu)
		p.MaxCwnd = float64(dst.cfg.NICBufferBytes) / float64(2*stride)
		p.RTOMin = sim.Millisecond
	}
	f.open(p)
	if op.OneSided() {
		f.srcMR = h.net.newMRWindow(srcCPU, f.mtu)
		f.dstMR = dst.net.newMRWindow(dstCPU, f.mtu)
	}
	h.net.flows = append(h.net.flows, f)
	dst.net.sinks = append(dst.net.sinks, f)
	h.tele.addFlow(h.net, f)
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
		seg := nic.Packet{CPU: f.srcCPU, Bytes: f.mtu, Seq: seq, Payload: f}
		switch {
		case f.src == nil:
			f.toSink(f.mtu, seq)
		case f.op.OneSided():
			iovas, start := f.srcMR.frame(seq)
			n.dev.SendTxDirect(seg, iovas, start)
		default:
			f.sendQueued++
			n.sendTx(seg, stackCPU)
		}
	}
}

// postRead posts the one-time READ work request from the initiator (the
// data sink): one stack invocation, a 64-byte request across the fabric,
// and the source NIC starts streaming — its CPU never sees the request.
func (f *flow) postRead() {
	n := f.dst
	n.h.core(n.cpuBase+f.dstCPU).Do(func() sim.Duration {
		return stackCPU
	}, func() {
		// READ flows run only in a cluster, so rev is a fabric port.
		f.rev.port.Send(f.rev.to, 64, func(bool) { f.pump() })
	})
}

// toSink carries a data segment that left the source toward the sink.
func (f *flow) toSink(bytes int, seq int64) {
	f.fwd.send(fabric.Packet{Bytes: bytes, Seq: seq, To: &f.data})
}

// Deliver lands a data segment at the sink. The abstract remote receives
// it on arrival. A one-sided frame lands as a direct DMA into the target
// window — no ring, no descriptor recycling, no per-packet remote CPU. A
// two-sided segment arrives like any other packet, through the sink's Rx
// datapath.
func (e *dataEnd) Deliver(p fabric.Packet) {
	f := e.f
	switch {
	case f.dst == nil:
		f.ackOrArm(f.receive(p.Seq, p.ECN))
	case f.op.OneSided():
		iovas, start := f.dstMR.frame(p.Seq)
		f.dst.dev.DirectRx(nic.Packet{CPU: f.dstCPU, Bytes: p.Bytes, ECN: p.ECN, Seq: p.Seq, Payload: f}, iovas, start)
	default:
		f.dst.dev.Arrive(nic.Packet{CPU: f.dstCPU, Bytes: p.Bytes, ECN: p.ECN, Seq: p.Seq, Payload: f})
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
	w := n.sinkWorks.get()
	if w.workFn == nil {
		w.workFn, w.doneFn = w.work, w.done
	}
	w.f, w.seq, w.ecn = f, seq, ecn
	w.irq = n.h.irqCost(n.cpuBase + f.dstCPU)
	n.h.core(n.cpuBase+f.dstCPU).Do(w.workFn, w.doneFn)
}

// sinkWork is a two-sided sink's stack work for one data segment: the
// receive runs on the core, and the ACK it produced, copied out of the
// receiver, goes out once the core has spent the time. Pooled by the
// sink NIC.
type sinkWork struct {
	f      *flow
	seq    int64
	ecn    bool
	irq    sim.Duration
	ack    transport.Ack
	acked  bool // the receive produced ack
	workFn func() sim.Duration
	doneFn func()
}

func (w *sinkWork) work() sim.Duration {
	if ack := w.f.receive(w.seq, w.ecn); ack != nil {
		w.ack, w.acked = *ack, true
	}
	return w.irq + w.f.dst.stackCost()
}

func (w *sinkWork) done() {
	f, ack, acked := w.f, w.ack, w.acked
	w.f, w.acked = nil, false
	f.dst.sinkWorks.put(w)
	if acked {
		f.sendAck(ack)
	} else {
		f.armFlush()
	}
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
// host's Tx accounting. When both hosts share an engine shard it applies
// inline. Otherwise it is posted to the sender's shard, where it lands
// at the next synchronization barrier: the increment is commutative
// bookkeeping whose timing only mid-window timeline ticks can observe,
// never simulated behaviour, and every post is drained before a window's
// clocks align, so Results are unchanged.
func (f *flow) creditPeerTx(bytes int64) {
	src := f.src
	if src == nil || bytes == 0 {
		return
	}
	sink, s := f.dst.h, src.h.pl.shard
	if sink.pl.shard == s {
		src.c.txDeliveredBytes += bytes
		return
	}
	now := sink.eng.Now()
	sink.pl.credits.Post(sink.pl.shard, s, now, now, txCredit{src, bytes})
}

// txCredit is a cross-shard creditPeerTx: bytes for n's Tx accounting.
type txCredit struct {
	n     *netDev
	bytes int64
}

func applyCredit(c txCredit) { c.n.c.txDeliveredBytes += c.bytes }

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
	n.h.eng.After(delAck, f.flushFn)
}

// flushTimer is the delayed-ACK timer firing.
func (f *flow) flushTimer() {
	f.flushArmed = false
	f.flushAck()
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
		f.toSource(64, ackWord(ack))
	case f.op.OneSided():
		f.dst.c.acksSent++
		f.toSource(64, ackWord(ack))
	default:
		f.dst.sendTx(nic.Packet{CPU: f.dstCPU, Bytes: 64, Seq: ackWord(ack), Payload: &f.acks}, ackTxCPU)
	}
}

// toSource carries an ACK, packed as ackWord packs it, that left the
// sink toward the source.
func (f *flow) toSource(bytes int, word int64) {
	f.rev.send(fabric.Packet{Bytes: bytes, Seq: word, To: &f.acks})
}

// Deliver lands an ACK at the source. The abstract remote takes it on
// arrival, and a one-sided initiator as the completion of its hardware
// ACK; a two-sided source receives it through its Rx datapath like any
// other packet.
func (e *ackEnd) Deliver(p fabric.Packet) {
	f := e.f
	if f.src == nil || f.op.OneSided() {
		f.onAck(wordAck(p.Seq))
		return
	}
	f.src.dev.Arrive(nic.Packet{CPU: f.srcCPU, Bytes: p.Bytes, ECN: p.ECN, Seq: p.Seq, Payload: e})
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
	w := n.ackWorks.get()
	if w.workFn == nil {
		w.workFn = w.work
	}
	w.f, w.ack = f, ack
	n.h.core(n.cpuBase+f.srcCPU).Do(w.workFn, f.pumpFn)
}

// ackWork is a detailed source's processing of one ACK; the flow pumps
// once the core has spent the time. Pooled by the source NIC.
type ackWork struct {
	f      *flow
	ack    transport.Ack
	workFn func() sim.Duration
}

func (w *ackWork) work() sim.Duration {
	f, ack := w.f, w.ack
	w.f = nil
	n := f.src
	n.ackWorks.put(w)
	f.snd.OnAck(ack, n.h.eng.Now())
	return ackRxCPU
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
	w := &mrWindow{stride: nic.FrameStride(mtu)}
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
		r := n.mrRemaps.get()
		if r.workFn == nil {
			r.workFn = r.work
		}
		r.n, r.desc = n, w.chunks[int(ord%int64(len(w.chunks)))]
		n.h.core(n.cpuBase+f.dstCPU).Do(r.workFn, nil)
	}
}

// mrRemap is the driver's remap of one recycled window chunk. Pooled by
// the sink NIC.
type mrRemap struct {
	n      *netDev
	desc   *core.Descriptor
	workFn func() sim.Duration
}

func (r *mrRemap) work() sim.Duration {
	n, desc := r.n, r.desc
	r.n, r.desc = nil, nil
	n.mrRemaps.put(r)
	cost, err := n.dom.RemapRxDescriptor(desc)
	if err != nil {
		panic(fmt.Sprintf("host: RemapRx(rdma window): %v", err))
	}
	return cost
}
