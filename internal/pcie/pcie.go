// Package pcie models one direction of the PCIe path between the NIC and
// host memory, including the address-translation latency the IOMMU adds.
//
// The model is the paper's own (§2.2): serving a DMA of a packet costs
//
//	service = max(l0 + walk, bytes·8/linkGbps)
//
// where l0 (65ns) is the fitted no-protection per-packet DMA latency with
// all DMA/walker parallelism folded in, walk is the time the IOMMU's
// page-table walkers spend on the packet's translation reads (lm = 197ns
// per read, fitted), and the second term is the PCIe serialisation floor.
// Because only ~100 cachelines can be buffered at the root-complex side,
// the paper treats the PCIe stage as serialised per packet — hence a
// single-server queue per direction.
//
// The walkers and the memory reads they issue are shared between the two
// directions: a Walker can be attached to both links so that Tx (ACK)
// translations delay Rx translations, the Rx/Tx interference of §2.2 and
// Figure 10.
package pcie

import (
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Walker models the IOMMU's page-table walkers and their memory reads as
// a shared resource with a configurable number of parallel walk engines
// (VT-d implements several); it is shared by both PCIe directions when
// attached to both links.
type Walker struct {
	eng     *sim.Engine
	lm      sim.Duration
	engines []sim.Time // per-engine busy-until
	reads   int64
	// latFactor, when set, scales the per-read latency — the hook the
	// memory-bus model uses to inflate walks under bandwidth contention.
	latFactor func() float64
}

// NewWalker returns a walker with per-read latency lm and two parallel
// walk engines.
func NewWalker(eng *sim.Engine, lm sim.Duration) *Walker {
	return NewWalkerN(eng, lm, 2)
}

// NewWalkerN returns a walker with n parallel walk engines.
func NewWalkerN(eng *sim.Engine, lm sim.Duration, n int) *Walker {
	if n < 1 {
		n = 1
	}
	return &Walker{eng: eng, lm: lm, engines: make([]sim.Time, n)}
}

// SetLatencyFactor installs a dynamic multiplier on the per-read latency
// (memory-bandwidth contention).
func (w *Walker) SetLatencyFactor(f func() float64) { w.latFactor = f }

// Reserve queues reads page-table reads on the least-loaded walk engine
// and returns their completion time.
func (w *Walker) Reserve(reads int) sim.Time {
	now := w.eng.Now()
	best := 0
	for i, b := range w.engines {
		if b < w.engines[best] {
			best = i
		}
	}
	if w.engines[best] < now {
		w.engines[best] = now
	}
	lm := w.lm
	if w.latFactor != nil {
		lm = sim.Duration(float64(lm) * w.latFactor())
	}
	w.engines[best] += sim.Duration(reads) * lm
	w.reads += int64(reads)
	return w.engines[best]
}

// Reads returns the total page-table reads served.
func (w *Walker) Reads() int64 { return w.reads }

// Stats counts link activity.
type Stats struct {
	DMAs      int64
	Bytes     int64
	MemReads  int64
	BusyTime  sim.Duration // total time the server was busy
	QueueTime sim.Duration // total time DMAs waited before service
}

type dma struct {
	bytes  int
	reads  int
	submit sim.Time
	done   func()
}

// Link is a single-server FIFO queue with the paper's service-time model.
// The walker (private by default, shareable via AttachWalker) is reserved
// when a DMA reaches the head of the queue, so cross-direction walker
// contention shows up as inflated translation latency.
type Link struct {
	eng    *sim.Engine
	l0     sim.Duration
	gbps   float64
	walker *Walker

	queue       sim.FIFO[dma]
	serving     bool
	cur         dma // the DMA in service while serving
	outstanding int
	completed   int64
	stallUntil  sim.Time
	stats       Stats
	// serveFn and completeFn are serve and complete bound once, so the
	// server schedules no fresh closure per DMA.
	serveFn, completeFn func()
	// lat records per-DMA completion latency (queue wait + service) in
	// nanoseconds, feeding the telemetry registry's latency section.
	lat stats.Histogram
}

// New returns a link with a private walker. gbps is the serialisation cap
// (128 for PCIe 3.0 x16 in the paper's testbed).
func New(eng *sim.Engine, l0, lm sim.Duration, gbps float64) *Link {
	l := &Link{eng: eng, l0: l0, gbps: gbps, walker: NewWalker(eng, lm)}
	l.serveFn, l.completeFn = l.serve, l.complete
	return l
}

// AttachWalker replaces the link's private walker, typically with one
// shared with the opposite direction.
func (l *Link) AttachWalker(w *Walker) { l.walker = w }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() Stats { return l.stats }

// ServiceTime returns the uncontended service time for a DMA.
func (l *Link) ServiceTime(bytes, memReads int) sim.Duration {
	translate := l.l0 + sim.Duration(memReads)*l.walker.lm
	ser := sim.Duration(float64(bytes) * 8 / l.gbps) // bits at gbps = ns
	if translate > ser {
		return translate
	}
	return ser
}

// Stall pauses service until the given virtual time: queued DMAs wait
// and new submissions enqueue behind them — a transient link flap
// (retraining, replay storms). In-flight service completes normally;
// extending an earlier stall is allowed, shortening it is not.
func (l *Link) Stall(until sim.Time) {
	if until > l.stallUntil {
		l.stallUntil = until
	}
}

// Busy reports whether the server is occupied.
func (l *Link) Busy() bool { return l.outstanding > 0 }

// Outstanding returns the number of submitted-but-incomplete DMAs.
func (l *Link) Outstanding() int { return l.outstanding }

// Submitted returns the number of DMAs ever submitted. A submitter that
// pairs completions with its own records by order reads it just before
// Submit: that value is the DMA's ordinal.
func (l *Link) Submitted() int64 { return l.completed + int64(l.outstanding) }

// Completed returns the number of DMAs completed, counting the one whose
// done callback is running. Inside done, Completed()-1 is the ordinal of
// the DMA completing.
func (l *Link) Completed() int64 { return l.completed }

// Submit enqueues a DMA; done fires when its service completes. DMAs are
// served FIFO in submission order.
func (l *Link) Submit(bytes, memReads int, done func()) {
	l.outstanding++
	l.queue.Push(dma{bytes: bytes, reads: memReads, submit: l.eng.Now(), done: done})
	if !l.serving {
		l.serving = true
		l.serve()
	}
}

func (l *Link) serve() {
	if l.queue.Len() == 0 {
		l.serving = false
		return
	}
	// A flapped link holds the head of the queue until the stall passes;
	// serving stays true so Submit cannot double-enter the server.
	if now := l.eng.Now(); now < l.stallUntil {
		l.eng.At(l.stallUntil, l.serveFn)
		return
	}
	d := l.queue.Pop()
	now := l.eng.Now()

	translate := l.l0
	if d.reads > 0 {
		translate += l.walker.Reserve(d.reads) - now
	}
	ser := sim.Duration(float64(d.bytes) * 8 / l.gbps)
	svc := translate
	if ser > svc {
		svc = ser
	}

	l.stats.DMAs++
	l.stats.Bytes += int64(d.bytes)
	l.stats.MemReads += int64(d.reads)
	l.stats.BusyTime += svc
	l.stats.QueueTime += now - d.submit
	l.lat.Observe(int64(now - d.submit + svc))
	l.cur = d
	l.eng.After(svc, l.completeFn)
}

// complete ends the service of l.cur, fires its done and serves the next
// DMA.
func (l *Link) complete() {
	done := l.cur.done
	l.cur = dma{}
	l.outstanding--
	l.completed++
	done()
	l.serve()
}

// Latency returns the link's per-DMA completion-latency histogram
// (nanoseconds from Submit to completion, i.e. queue wait plus service).
func (l *Link) Latency() *stats.Histogram { return &l.lat }

// RegisterProbes exposes the link's counters through the registry under
// prefix (e.g. "pcie.rx."), plus its latency histogram as prefix+
// "latency_ns". All probes are read-only views over live state.
func (l *Link) RegisterProbes(r *stats.Registry, prefix string) {
	r.GaugeFunc(prefix+"dmas", func() float64 { return float64(l.stats.DMAs) })
	r.GaugeFunc(prefix+"bytes", func() float64 { return float64(l.stats.Bytes) })
	r.GaugeFunc(prefix+"mem_reads", func() float64 { return float64(l.stats.MemReads) })
	r.GaugeFunc(prefix+"busy_ns", func() float64 { return float64(l.stats.BusyTime) })
	r.GaugeFunc(prefix+"queue_ns", func() float64 { return float64(l.stats.QueueTime) })
	r.GaugeFunc(prefix+"outstanding", func() float64 { return float64(l.outstanding) })
	r.AddHistogram(prefix+"latency_ns", &l.lat)
}

// RegisterProbes exposes the walker's cumulative page-table reads under
// prefix (e.g. "walker.").
func (w *Walker) RegisterProbes(r *stats.Registry, prefix string) {
	r.GaugeFunc(prefix+"reads", func() float64 { return float64(w.reads) })
}

// Utilization returns the fraction of elapsed time the link was busy.
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(l.stats.BusyTime) / float64(now)
}
