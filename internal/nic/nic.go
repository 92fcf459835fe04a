// Package nic models the network interface card: per-core Rx descriptor
// rings with multi-page descriptors (64 pages on Mellanox CX-5), a finite
// input buffer with tail drop and DCTCP-style ECN marking, the Rx DMA
// engine that splits packets into PCIe transactions and translates them
// through the IOMMU, and the Tx DMA engine that reads packets (and ACKs)
// out of host memory.
//
// The NIC owns the Rx descriptor lifecycle (§2.1 steps 1–4): it consumes
// descriptor page slots as packets arrive, and when a descriptor's pages
// are exhausted and its DMAs complete it schedules the driver work —
// unmap + invalidate + replenish — on the owning core via the host's CPU
// executor.
package nic

import (
	"fmt"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
)

// Executor schedules driver work on a core: work runs when the core frees
// up and returns the CPU time it consumed; done (optional) fires once that
// time has elapsed.
type Executor interface {
	Do(cpu int, work func() sim.Duration, done func())
}

// Packet is one wire packet. Seq and Payload are opaque to the NIC; a
// sender that numbers its packets carries the number in Seq, so a
// pointer Payload can name the sender without a per-packet allocation.
type Packet struct {
	CPU     int // target core / ring (aRFS steering)
	Bytes   int
	ECN     bool // marked congestion-experienced
	Seq     int64
	Payload any
}

// The PCIe and framing constants of the paper's testbed NIC.
const (
	mps         = 512 // PCIe max payload size per transaction
	headerBytes = 66  // per-frame link+transport header overhead
	strideAlign = 256 // frame placement alignment within a descriptor
)

// Config sizes the NIC.
type Config struct {
	Cores       int
	MTU         int // max packet payload (default 4096)
	RingPackets int // Rx ring capacity in MTU-sized frames per core (default 256)
	BufferBytes int // shared input buffer (default 2MB)
	// DirectECNKBytes is the mark threshold for one-sided DMA (DirectRx);
	// <= 0 disables. Ring arrivals never mark: real NICs do not ECN-mark
	// on host-side congestion, so PCIe backpressure is invisible to DCTCP
	// and surfaces as tail drops (the host-congestion observation of
	// [1, 2]). One-sided traffic terminates at the NIC, so the device
	// buffer IS the congestion point: RDMA NICs surface it as congestion
	// notification (CNP / PFC-fed switch marks), which this threshold
	// stands in for.
	DirectECNKBytes int
	// Faults, when non-nil, makes this NIC misbehave per the fault plan:
	// stray/wild DMA translations, duplicate descriptor fetches, delayed
	// completion writebacks. Nil (the default) is a guaranteed no-op.
	Faults *fault.Device
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.MTU <= 0 {
		c.MTU = 4096
	}
	if c.RingPackets <= 0 {
		c.RingPackets = 256
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 2 << 20
	}
	return c
}

// Stats counts NIC-level events.
type Stats struct {
	Arrived      int64
	ArrivedBytes int64
	Dropped      int64
	DroppedBytes int64
	Marked       int64
	RxDMAs       int64
	RxBytes      int64
	TxDMAs       int64
	TxBytes      int64
	RingStalls   int64 // arrivals that found no descriptor slot free
}

// ring is one core's Rx descriptor ring. Frames are packed
// byte-contiguously into a descriptor's pages (Mellanox multi-packet RQ):
// a frame may span a page boundary and consecutive frames share pages,
// which is why IOTLB misses per page sit between 1 and 2 and grow with
// interference (§2.2).
type ring struct {
	cpu      int
	avail    sim.FIFO[*rxDesc]
	cur      *rxDesc
	curByte  int              // next free byte in the current descriptor
	queue    sim.FIFO[Packet] // packets waiting for DMA on this ring
	ringIOVA ptable.IOVA
}

// rxDesc is the NIC's record of one Rx descriptor slot: the driver's
// descriptor, its DMAs in flight, and whether it has been handed back
// for recycling. Recycling puts the replacement descriptor in the same
// record, so the functions it schedules are bound once, at New.
type rxDesc struct {
	*core.Descriptor
	n       *NIC
	r       *ring
	pending int  // DMAs in flight
	done    bool // handed to the driver for unmap and replenish

	recycleFn func()
	replaceFn func() sim.Duration
}

// NIC is the device model.
type NIC struct {
	eng  *sim.Engine
	cfg  Config
	dom  *core.Domain
	rx   *pcie.Link
	tx   *pcie.Link
	exec Executor

	rings       []*ring
	queued      int // packets waiting in the rings' queues
	bufferBytes int
	nextRing    int // round-robin pump cursor

	txQueue sim.FIFO[txEntry]

	// DMAs submitted and not yet completed, in submission order. Each
	// PCIe link completes FIFO, so the bound rxDoneFn/txDoneFn pop the
	// record of the DMA completing.
	rxInflight, txInflight sim.FIFO[inflight]
	rxDoneFn, txDoneFn     func()
	pumpRxFn               func() // pumpRx, run after each descriptor recycle

	// OnDeliver fires when a packet's DMA into memory completes; the host
	// then charges per-packet stack work to the core.
	OnDeliver func(pkt Packet)
	// OnTxDone fires when a Tx DMA read completes (the packet is on the
	// wire); the host unmaps the Tx mapping.
	OnTxDone func(pkt Packet, m *core.TxMapping)

	stats     Stats
	rxPumping bool
	txPumping bool
}

type txEntry struct {
	pkt Packet
	m   *core.TxMapping
	// iovas, for one-sided reads, names the registered memory window the
	// NIC streams from directly — no per-packet MapTx/UnmapTx (m is nil).
	iovas []ptable.IOVA
	start int // byte offset of the frame within iovas
}

// inflight is one submitted DMA awaiting completion. ord is its ordinal
// on its link (pcie.Link.Submitted before Submit). An Rx record names its
// stride's descriptor (nil for a one-sided DirectRx); a Tx record carries
// the mapping to unmap.
type inflight struct {
	ord  int64
	pkt  Packet
	desc *rxDesc
	m    *core.TxMapping
}

// New wires a NIC to its PCIe links, protection domain and CPU executor.
func New(eng *sim.Engine, cfg Config, dom *core.Domain, rx, tx *pcie.Link, exec Executor) (*NIC, error) {
	cfg = cfg.withDefaults()
	n := &NIC{eng: eng, cfg: cfg, dom: dom, rx: rx, tx: tx, exec: exec}
	n.rxDoneFn, n.txDoneFn, n.pumpRxFn = n.rxDone, n.txDone, n.pumpRx
	descPages := dom.DescriptorPages()
	descBytes := descPages * ptable.PageSize
	frame := cfg.MTU + headerBytes
	if frame > descBytes {
		return nil, fmt.Errorf("nic: MTU %d larger than a descriptor", cfg.MTU)
	}
	framesPerDesc := descBytes / frame
	// The NIC is given twice the ring's worth of pages (the paper's
	// footnote 2 observes this factor of two in practice).
	numDesc := 2 * ((cfg.RingPackets + framesPerDesc - 1) / framesPerDesc)
	for c := 0; c < cfg.Cores; c++ {
		r := &ring{cpu: c}
		// The ring table itself is coherent DMA memory, mapped once.
		iovas, err := dom.MapPersistentPages(c, 1)
		if err != nil {
			return nil, err
		}
		r.ringIOVA = iovas[0]
		for d := 0; d < numDesc; d++ {
			desc, _, err := dom.MapRxDescriptor(c)
			if err != nil {
				return nil, err
			}
			d := &rxDesc{Descriptor: desc, n: n, r: r}
			d.recycleFn, d.replaceFn = d.recycle, d.replace
			r.avail.Push(d)
		}
		n.rings = append(n.rings, r)
	}
	return n, nil
}

// Stats returns NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// frameBytes returns the DMA size of a packet: payload plus headers.
func frameBytes(pkt Packet) int { return pkt.Bytes + headerBytes }

// align rounds b up to the frame placement alignment.
func align(b int) int { return (b + strideAlign - 1) / strideAlign * strideAlign }

// FrameStride returns the aligned byte stride one frame of the given
// payload occupies in a registered memory window — the same packing the
// Rx rings use, so window capacity math matches ring capacity math.
func FrameStride(payload int) int { return align(payload + headerBytes) }

// Arrive delivers a wire packet into the NIC input buffer (§2.1 step 2).
// It tail-drops when the buffer is full and never marks (see
// Config.DirectECNKBytes).
func (n *NIC) Arrive(pkt Packet) {
	if !n.admit(&pkt, 0) {
		return
	}
	r := n.rings[pkt.CPU%len(n.rings)]
	r.queue.Push(pkt)
	n.queued++
	n.pumpRx()
}

// DirectRx ingests a one-sided packet (an RDMA WRITE arriving from the
// fabric, or READ response data): input-buffer accounting and ECN as in
// Arrive, but the frame lands in a registered memory window (page-sized
// IOVAs, starting at byte offset start) that the NIC resolves itself —
// through its ATS cache when one is attached — with no ring descriptor
// consumed and no receive CPU involved.
func (n *NIC) DirectRx(pkt Packet, iovas []ptable.IOVA, start int) {
	if !n.admit(&pkt, n.cfg.DirectECNKBytes) {
		return
	}
	reads := 0
	if n.dom.Mode().Translated() {
		n.cfg.Faults.Observe(iovas[start/ptable.PageSize] + ptable.IOVA(start%ptable.PageSize))
		reads = n.translateWindow(iovas, start, frameBytes(pkt))
		reads += n.cfg.Faults.MaybeMisbehave()
	}
	n.stats.RxDMAs++
	n.stats.RxBytes += int64(pkt.Bytes)
	n.rxInflight.Push(inflight{ord: n.rx.Submitted(), pkt: pkt})
	n.rx.Submit(pkt.Bytes, reads, n.rxDoneFn)
}

// admit counts an arriving packet into the input buffer: it tail-drops
// the packet when the buffer is full (reporting false), and otherwise
// marks it above k buffered bytes (k <= 0 never marks) and takes its
// buffer space.
func (n *NIC) admit(pkt *Packet, k int) bool {
	n.stats.Arrived++
	n.stats.ArrivedBytes += int64(pkt.Bytes)
	if n.bufferBytes+pkt.Bytes > n.cfg.BufferBytes {
		n.stats.Dropped++
		n.stats.DroppedBytes += int64(pkt.Bytes)
		return false
	}
	if k > 0 && n.bufferBytes > k {
		pkt.ECN = true
		n.stats.Marked++
	}
	n.bufferBytes += pkt.Bytes
	return true
}

// rxDone completes the oldest Rx DMA in flight: the frame is in memory,
// its buffer space frees, its descriptor may retire, and the host sees
// the packet.
func (n *NIC) rxDone() {
	d := popCompleted(&n.rxInflight, n.rx, "Rx")
	n.bufferBytes -= d.pkt.Bytes
	if d.desc != nil {
		d.desc.pending--
		n.maybeRecycle(d.desc)
	}
	if n.OnDeliver != nil {
		n.OnDeliver(d.pkt)
	}
	n.pumpRx()
}

// popCompleted pops the record of the DMA link is completing, checking
// that it is the one the link completes.
func popCompleted(q *sim.FIFO[inflight], link *pcie.Link, dir string) inflight {
	if q.Len() == 0 {
		panic(fmt.Sprintf("nic: %s DMA completion with none in flight", dir))
	}
	d := q.Pop()
	if want := link.Completed() - 1; d.ord != want {
		panic(fmt.Sprintf("nic: %s DMA completion out of order: oldest in flight is DMA %d, the link completed DMA %d", dir, d.ord, want))
	}
	return d
}

// translateWindow translates one frame's PCIe transactions against a
// window of page-sized IOVAs, returning the page-table reads performed.
// The transactions whose byte offsets share a page go as one run.
func (n *NIC) translateWindow(iovas []ptable.IOVA, start, bytes int) int {
	reads := 0
	for off := 0; off < bytes; {
		b := start + off
		// The run's key is b's page before the clamp to the window's
		// last page, so a run never crosses a page.
		key := b / ptable.PageSize
		end := min((key+1)*ptable.PageSize-start, bytes)
		count := (end - off + mps - 1) / mps
		page := min(key, len(iovas)-1)
		v := iovas[page] + ptable.IOVA(b%ptable.PageSize)
		reads += n.dom.TranslateRun(v, count, mps)
		off += count * mps
	}
	return reads
}

// pumpRx starts the next Rx DMA if the PCIe link is free and some ring has
// both a queued packet and descriptor pages available.
func (n *NIC) pumpRx() {
	if n.rxPumping {
		return
	}
	n.rxPumping = true
	defer func() { n.rxPumping = false }()

	// Keep a few DMAs in flight: the root complex pipelines translations
	// of queued transactions, so translation streams from different rings
	// interleave at PCIe-transaction granularity — this is what lets
	// concurrent DMAs contend for the IOTLB and PTcaches (§2.2).
	for n.rx.Outstanding() < rxPipeline {
		// A batch never exceeds rxPipeline strides, so it and its read
		// counts live on the stack.
		var claims [rxPipeline]rxClaim
		var reads [rxPipeline]int
		batch := claims[:0]
		for n.rx.Outstanding()+len(batch) < rxPipeline {
			r := n.pickRing()
			if r == nil {
				break
			}
			pkt := r.queue.Pop()
			n.queued--
			desc := r.cur
			start := align(r.curByte)
			r.curByte = start + frameBytes(pkt)
			desc.pending++
			batch = append(batch, rxClaim{pkt, desc, start})
		}
		if len(batch) == 0 {
			return
		}
		if n.dom.Mode().Translated() {
			n.translateBatch(batch, reads[:len(batch)])
			for i := range batch {
				reads[i] += n.cfg.Faults.MaybeMisbehave()
			}
		}
		for i, p := range batch {
			n.submitRxDMA(p.pkt, p.desc, reads[i])
		}
	}
}

// rxClaim is one frame a batch claimed: its descriptor and the frame's
// byte offset in it.
type rxClaim struct {
	pkt   Packet
	desc  *rxDesc
	start int
}

// translateBatch translates a batch's transactions round-robin, the way
// they interleave on the wire, and adds each DMA's page-table reads to
// reads. Once one DMA is left with transactions, nothing interleaves
// with the rest of its frame, so that rest goes page by page as runs; a
// batch of one DMA runs from its first transaction.
func (n *NIC) translateBatch(batch []rxClaim, reads []int) {
	live := len(batch)
	for off := 0; live > 0; off += mps {
		for i, p := range batch {
			bytes := frameBytes(p.pkt)
			if off >= bytes {
				continue
			}
			b := p.start + off
			v := p.desc.IOVAs[b/ptable.PageSize] + ptable.IOVA(b%ptable.PageSize)
			if off == 0 {
				n.cfg.Faults.Observe(v)
			}
			if live == 1 {
				reads[i] += n.translateWindow(p.desc.IOVAs, b, bytes-off)
				return
			}
			reads[i] += n.dom.Translate(v).MemReads()
			if off+mps >= bytes {
				live--
			}
		}
	}
}

// rxPipeline bounds in-flight Rx DMAs (about 100 cachelines of RC-side
// buffering, i.e. roughly two 4KB packets, plus headroom for small ones).
const rxPipeline = 4

// pickRing round-robins over rings that can make progress.
func (n *NIC) pickRing() *ring {
	if n.queued == 0 {
		return nil
	}
	i := n.nextRing
	for range n.rings {
		r := n.rings[i]
		if i++; i == len(n.rings) {
			i = 0
		}
		if r.queue.Len() == 0 {
			continue
		}
		if !n.ensureDescriptor(r) {
			n.stats.RingStalls++
			continue
		}
		n.nextRing = i
		return r
	}
	return nil
}

// ensureDescriptor makes r.cur usable, fetching the next descriptor from
// the available list when the current one is exhausted. Fetching a
// descriptor costs one translated read of the ring page.
func (n *NIC) ensureDescriptor(r *ring) bool {
	// A descriptor is usable only if a maximum-size frame fits after the
	// current fill point; the partial tail is wasted, as on real hardware.
	if r.cur != nil && align(r.curByte)+n.cfg.MTU+headerBytes <= len(r.cur.IOVAs)*ptable.PageSize {
		return true
	}
	if r.avail.Len() == 0 {
		return false
	}
	r.cur = r.avail.Pop()
	r.curByte = 0
	if n.dom.Mode().Translated() {
		n.dom.Translate(r.ringIOVA) // descriptor fetch
		if n.cfg.Faults.DupDescRead() {
			n.dom.Translate(r.ringIOVA) // injected out-of-window duplicate
		}
	}
	return true
}

// submitRxDMA submits one translated stride DMA (slot accounting was done
// when the batch claimed the stride).
func (n *NIC) submitRxDMA(pkt Packet, desc *rxDesc, reads int) {
	n.stats.RxDMAs++
	n.stats.RxBytes += int64(pkt.Bytes)
	n.rxInflight.Push(inflight{ord: n.rx.Submitted(), pkt: pkt, desc: desc})
	n.rx.Submit(pkt.Bytes, reads, n.rxDoneFn)
}

// maybeRecycle retires a fully-consumed, fully-DMAed descriptor: the
// driver unmaps it (strict safety: the NIC loses access now) and maps a
// fresh descriptor, all as CPU work on the owning core.
func (n *NIC) maybeRecycle(d *rxDesc) {
	r := d.r
	if d == r.cur && align(r.curByte)+n.cfg.MTU+headerBytes <= len(d.IOVAs)*ptable.PageSize {
		return // still being filled
	}
	if d.pending != 0 || d.done {
		return
	}
	d.done = true
	if r.cur == d {
		r.cur = nil
		r.curByte = 0
	}
	// An injected late completion writeback delays the driver seeing the
	// descriptor as done — the unmap happens later, never earlier, so
	// this widens timing windows without ever weakening safety itself.
	if delay := n.cfg.Faults.DelayWriteback(); delay > 0 {
		n.eng.After(delay, d.recycleFn)
	} else {
		d.recycle()
	}
}

// recycle queues the descriptor's unmap and replenish on its ring's core;
// the pump runs again once that work is done.
func (d *rxDesc) recycle() { d.n.exec.Do(d.r.cpu, d.replaceFn, d.n.pumpRxFn) }

// replace is the driver's recycling work: it unmaps the descriptor, maps
// a fresh one into this record and returns it to the ring, reporting the
// CPU time spent.
func (d *rxDesc) replace() sim.Duration {
	n := d.n
	unmapCost, err := n.dom.UnmapRxDescriptor(d.Descriptor)
	if err != nil {
		panic(fmt.Sprintf("nic: unmap descriptor: %v", err))
	}
	fresh, mapCost, err := n.dom.MapRxDescriptor(d.r.cpu)
	if err != nil {
		panic(fmt.Sprintf("nic: replenish descriptor: %v", err))
	}
	d.Descriptor, d.done = fresh, false
	d.r.avail.Push(d)
	return unmapCost + mapCost
}

// SendTx enqueues a Tx DMA: the NIC reads the packet out of host memory
// through m's IOVAs. The host must have charged MapTx CPU cost already.
func (n *NIC) SendTx(pkt Packet, m *core.TxMapping) {
	n.txQueue.Push(txEntry{pkt: pkt, m: m})
	n.pumpTx()
}

// SendTxDirect enqueues a one-sided Tx DMA: the NIC streams the frame
// out of a registered memory window (page-sized IOVAs, frame starting at
// byte offset start) through its own translation path — no per-packet
// MapTx, and OnTxDone fires with a nil mapping so nothing is unmapped.
func (n *NIC) SendTxDirect(pkt Packet, iovas []ptable.IOVA, start int) {
	n.txQueue.Push(txEntry{pkt: pkt, iovas: iovas, start: start})
	n.pumpTx()
}

func (n *NIC) pumpTx() {
	if n.txPumping {
		return
	}
	n.txPumping = true
	defer func() { n.txPumping = false }()

	for !n.tx.Busy() && n.txQueue.Len() > 0 {
		e := n.txQueue.Pop()
		iovas, start := e.iovas, e.start
		if e.m != nil {
			iovas, start = e.m.IOVAs, 0
		}
		reads := 0
		if n.dom.Mode().Translated() && len(iovas) > 0 {
			n.cfg.Faults.Observe(iovas[start/ptable.PageSize])
			reads = n.translateWindow(iovas, start, e.pkt.Bytes+headerBytes)
			reads += n.cfg.Faults.MaybeMisbehave()
		}
		n.stats.TxDMAs++
		n.stats.TxBytes += int64(e.pkt.Bytes)
		n.txInflight.Push(inflight{ord: n.tx.Submitted(), pkt: e.pkt, m: e.m})
		n.tx.Submit(e.pkt.Bytes, reads, n.txDoneFn)
	}
}

// txDone completes the oldest Tx DMA in flight: the packet is on the
// wire and the host may unmap it.
func (n *NIC) txDone() {
	d := popCompleted(&n.txInflight, n.tx, "Tx")
	if n.OnTxDone != nil {
		n.OnTxDone(d.pkt, d.m)
	}
	n.pumpTx()
}
