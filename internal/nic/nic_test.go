package nic

import (
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/iommu"
	"fastsafe/internal/pcie"
	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

// instantExec runs driver work immediately with zero latency.
type instantExec struct{ eng *sim.Engine }

func (e *instantExec) Do(_ int, work func() sim.Duration, done func()) {
	d := work()
	if done != nil {
		e.eng.After(d, done)
	}
}

type harness struct {
	eng *sim.Engine
	mmu *iommu.IOMMU // the domain's, as a host attaches its primary NIC
	dom *core.Domain
	nic *NIC
	rx  *pcie.Link
	tx  *pcie.Link

	delivered []Packet
	txDone    []Packet
}

func newHarness(t *testing.T, mode core.Mode, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(1)}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	h.mmu = iommu.New(iommu.Config{})
	dom, err := core.NewDomain(core.Config{Mode: mode, NumCPUs: cfg.Cores, DescriptorPages: 64,
		SharedIOMMU: h.mmu, DefaultDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	h.dom = dom
	h.rx = pcie.New(h.eng, 65, 197, 128)
	h.tx = pcie.New(h.eng, 65, 197, 128)
	n, err := New(h.eng, cfg, h.dom, h.rx, h.tx, &instantExec{h.eng})
	if err != nil {
		t.Fatal(err)
	}
	h.nic = n
	n.OnDeliver = func(p Packet) { h.delivered = append(h.delivered, p) }
	n.OnTxDone = func(p Packet, m *core.TxMapping) {
		h.txDone = append(h.txDone, p)
		if m != nil {
			if _, err := h.dom.UnmapTx(m); err != nil {
				t.Fatalf("UnmapTx: %v", err)
			}
		}
	}
	return h
}

func TestRxDeliversPacket(t *testing.T) {
	h := newHarness(t, core.Off, Config{})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096, Payload: "p"})
	h.eng.RunAll()
	if len(h.delivered) != 1 || h.delivered[0].Payload != "p" {
		t.Fatalf("delivered = %v", h.delivered)
	}
	if h.nic.bufferBytes != 0 {
		t.Fatal("buffer not drained")
	}
}

func TestRxTranslationCountsReads(t *testing.T) {
	h := newHarness(t, core.Strict, Config{})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	h.eng.RunAll()
	c := h.mmu.Counters()
	// 8 transactions of 512B: at least one IOTLB miss, seven hits.
	if c.Translations < 8 {
		t.Fatalf("Translations = %d, want >= 8", c.Translations)
	}
	if c.IOTLBMisses < 1 {
		t.Fatal("no IOTLB miss on first DMA")
	}
	if c.MemReads < 1 {
		t.Fatal("no page-table reads")
	}
}

func TestOffModeNoTranslations(t *testing.T) {
	h := newHarness(t, core.Off, Config{})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	h.eng.RunAll()
	if h.mmu.Counters().Translations != 0 {
		t.Fatal("Off mode performed translations")
	}
}

func TestBufferTailDrop(t *testing.T) {
	h := newHarness(t, core.Off, Config{BufferBytes: 8192})
	for i := 0; i < 4; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	}
	// First packet may start its DMA immediately, freeing no buffer until
	// completion; at least one of the four must drop.
	if h.nic.Stats().Dropped == 0 {
		t.Fatal("no tail drop with tiny buffer")
	}
	h.eng.RunAll()
	if s := h.nic.Stats(); int(s.Dropped)+len(h.delivered) != 4 || s.DroppedBytes == 0 {
		t.Fatalf("drops not accounted: %+v, %d delivered", s, len(h.delivered))
	}
}

// TestRingArrivalsNeverMark: however full the input buffer, a ring
// arrival keeps its ECN bit as the wire delivered it; only the one-sided
// path marks (TestDirectRxMarksAtOwnThreshold).
func TestRingArrivalsNeverMark(t *testing.T) {
	h := newHarness(t, core.Off, Config{DirectECNKBytes: 1000})
	for i := 0; i < 64; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 4096, ECN: i == 1})
	}
	h.eng.RunAll()
	if st := h.nic.Stats(); st.Marked != 0 || len(h.delivered) != 64 {
		t.Fatalf("ring arrivals: %+v, %d delivered", st, len(h.delivered))
	}
	for i, p := range h.delivered {
		if p.ECN != (i == 1) {
			t.Fatalf("packet %d delivered with ECN %v", i, p.ECN)
		}
	}
}

func TestDescriptorRecycling(t *testing.T) {
	// One descriptor = 64 pages = 64 packets at 4KB MTU. Sending 130
	// packets must recycle at least one descriptor.
	h := newHarness(t, core.FNS, Config{RingPackets: 128})
	for i := 0; i < 130; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	}
	h.eng.RunAll()
	c := h.dom.Counters()
	if c.RxDescriptorsUnmapped == 0 {
		t.Fatal("no descriptor was recycled")
	}
	// All arrived packets eventually delivered (ring big enough).
	if dropped := int(h.nic.Stats().Dropped); len(h.delivered)+dropped != 130 {
		t.Fatalf("delivered %d + dropped %d != 130", len(h.delivered), dropped)
	}
}

func TestRingStallWhenDescriptorsExhausted(t *testing.T) {
	// A stalled executor never replenishes descriptors: after the ring's
	// strides are consumed, packets pile up and eventually drop.
	h := newHarness(t, core.Strict, Config{RingPackets: 64, BufferBytes: 16 * 4096})
	// Replace executor behaviour: the default instantExec already ran in
	// New for initial descriptors; block future recycles by swapping exec.
	h.nic.exec = &neverExec{}
	for i := 0; i < 100; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	}
	h.eng.RunAll()
	if len(h.delivered) > 64 {
		t.Fatalf("delivered %d, want <= 64 (one ring of descriptors)", len(h.delivered))
	}
	if h.nic.Stats().Dropped == 0 {
		t.Fatal("expected drops once the ring stalled")
	}
}

type neverExec struct{}

func (*neverExec) Do(int, func() sim.Duration, func()) {}

func TestMultiCoreSteering(t *testing.T) {
	h := newHarness(t, core.Off, Config{Cores: 2})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096, Payload: 0})
	h.nic.Arrive(Packet{CPU: 1, Bytes: 4096, Payload: 1})
	h.eng.RunAll()
	if len(h.delivered) != 2 {
		t.Fatalf("delivered = %d, want 2", len(h.delivered))
	}
}

func TestTxDMAAndUnmap(t *testing.T) {
	h := newHarness(t, core.FNS, Config{})
	m, _, err := h.dom.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.nic.SendTx(Packet{CPU: 0, Bytes: 64, Payload: "ack"}, m)
	h.eng.RunAll()
	if len(h.txDone) != 1 {
		t.Fatalf("txDone = %d, want 1", len(h.txDone))
	}
	if h.dom.Counters().TxPacketsUnmapped != 1 {
		t.Fatal("Tx mapping not unmapped after DMA")
	}
	if h.nic.Stats().TxDMAs != 1 {
		t.Fatal("Tx DMA not counted")
	}
}

func TestTxQueueSerializes(t *testing.T) {
	h := newHarness(t, core.Off, Config{})
	for i := 0; i < 3; i++ {
		h.nic.SendTx(Packet{CPU: 0, Bytes: 4096, Payload: i}, nil)
	}
	if h.nic.txQueue.Len() == 0 && h.tx.Busy() == false {
		t.Fatal("expected queued Tx work")
	}
	h.eng.RunAll()
	if len(h.txDone) != 3 {
		t.Fatalf("txDone = %d, want 3", len(h.txDone))
	}
	for i, p := range h.txDone {
		if p.Payload != i {
			t.Fatalf("Tx completion order = %v", h.txDone)
		}
	}
}

func TestJumboMTUConsumesMultiplePages(t *testing.T) {
	h := newHarness(t, core.Strict, Config{MTU: 9000, RingPackets: 32})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 9000})
	h.eng.RunAll()
	if len(h.delivered) != 1 {
		t.Fatalf("delivered = %d, want 1", len(h.delivered))
	}
	// 9000B at 512B MPS = 18 transactions spanning 3 pages.
	if c := h.mmu.Counters(); c.Translations < 18 {
		t.Fatalf("Translations = %d, want >= 18", c.Translations)
	}
}

func TestThroughputCloseToModelStrictVsOff(t *testing.T) {
	// Off mode drains 4KB packets at PCIe serialization (256ns each);
	// strict mode with cold caches is slower.
	run := func(mode core.Mode) sim.Time {
		h := newHarness(t, mode, Config{RingPackets: 512, BufferBytes: 8 << 20})
		for i := 0; i < 256; i++ {
			h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
		}
		h.eng.RunAll()
		if len(h.delivered) != 256 {
			t.Fatalf("mode %v delivered %d", mode, len(h.delivered))
		}
		return h.eng.Now()
	}
	off := run(core.Off)
	strict := run(core.Strict)
	if strict <= off {
		t.Fatalf("strict (%v) not slower than off (%v)", strict, off)
	}
}

func TestBytePackedFramesSharePages(t *testing.T) {
	// Two consecutive 4096B-payload frames (4162B with headers) share the
	// page the first frame's tail lands in: translating the second frame's
	// head must hit the IOTLB entry the first frame installed.
	h := newHarness(t, core.FNS, Config{})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	h.eng.RunAll()
	missesAfterFirst := h.mmu.Counters().IOTLBMisses
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	h.eng.RunAll()
	missesAfterSecond := h.mmu.Counters().IOTLBMisses
	// First frame touches pages 0 and 1 (2 misses); the second starts in
	// page 1 (hit) and crosses into page 2 (1 miss).
	if d := missesAfterSecond - missesAfterFirst; d != 1 {
		t.Fatalf("second frame caused %d IOTLB misses, want 1 (page sharing)", d)
	}
}

func TestSmallFramesPackDensely(t *testing.T) {
	// 64B ACK frames pack at 256B alignment: ~30 of them fit in one page,
	// consuming descriptor bytes far slower than MTU frames.
	h := newHarness(t, core.FNS, Config{})
	for i := 0; i < 30; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 64})
	}
	h.eng.RunAll()
	if len(h.delivered) != 30 {
		t.Fatalf("delivered %d", len(h.delivered))
	}
	// All 30 frames fit within the first couple of pages: at most a few
	// IOTLB misses, not one per frame.
	if c := h.mmu.Counters(); c.IOTLBMisses > 3 {
		t.Fatalf("IOTLBMisses = %d for 30 packed small frames, want <= 3", c.IOTLBMisses)
	}
}

func TestDescriptorTailWasted(t *testing.T) {
	// When the remaining descriptor bytes cannot hold a max-size frame,
	// the NIC moves to the next descriptor; the ring still makes progress.
	h := newHarness(t, core.Strict, Config{RingPackets: 256})
	n := 200
	for i := 0; i < n; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	}
	h.eng.RunAll()
	if got := len(h.delivered) + int(h.nic.Stats().Dropped); got != n {
		t.Fatalf("accounted %d of %d", got, n)
	}
	if h.dom.Counters().RxDescriptorsUnmapped == 0 {
		t.Fatal("no descriptor completed despite tail waste")
	}
}

func TestRingStallCounter(t *testing.T) {
	// The ring is provisioned with 2x its nominal packet capacity
	// (footnote 2), so exhaust well beyond that with a dead executor.
	h := newHarness(t, core.Strict, Config{RingPackets: 64, BufferBytes: 4 << 20})
	h.nic.exec = &neverExec{} // descriptors never replenished
	for i := 0; i < 400; i++ {
		h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	}
	h.eng.RunAll()
	if h.nic.Stats().RingStalls == 0 {
		t.Fatal("expected ring stalls with a dead executor")
	}
}

// TestRxRecycleAllocatesOnlyInTheDriver: in steady state the Rx path —
// arrivals, DMAs and the recycling of each used descriptor — allocates
// nothing beyond what the driver's own unmap and replenish allocate.
func TestRxRecycleAllocatesOnlyInTheDriver(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, mode := range []core.Mode{core.Strict, core.Cap} {
		h := newHarness(t, mode, Config{})
		h.nic.OnDeliver = func(Packet) {}
		burst := func() {
			for i := 0; i < 60; i++ { // one descriptor's worth of MTU frames
				h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
			}
			h.eng.RunAll()
		}
		for i := 0; i < 40; i++ {
			burst()
		}
		const runs = 50
		before := h.dom.Counters().RxDescriptorsUnmapped
		for i := 0; i < runs; i++ {
			burst()
		}
		recycled := float64(h.dom.Counters().RxDescriptorsUnmapped-before) / runs
		nicAllocs := testing.AllocsPerRun(runs, burst)
		twin := newHarness(t, mode, Config{})
		desc, _, err := twin.dom.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		driverAllocs := testing.AllocsPerRun(runs, func() {
			if _, err := twin.dom.UnmapRxDescriptor(desc); err != nil {
				t.Fatal(err)
			}
			if desc, _, err = twin.dom.MapRxDescriptor(0); err != nil {
				t.Fatal(err)
			}
		})
		if recycled < 0.5 {
			t.Fatalf("%v: %v descriptors recycled a burst; the test needs about one", mode, recycled)
		}
		if nicAllocs > recycled*driverAllocs {
			t.Errorf("%v: %v allocs a burst, which recycles %v descriptors; the driver's unmap and replenish make %v each",
				mode, nicAllocs, recycled, driverAllocs)
		}
	}
}
