package host

import (
	"fmt"
	"strings"

	"fastsafe/internal/ats"
	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/iommu"
	"fastsafe/internal/iova"
	"fastsafe/internal/nic"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Results is the measurement of one experiment window, normalised the way
// the paper reports: cache misses per 4KB page worth of delivered data,
// drop rates as a fraction of arrivals, throughput as application-level
// goodput. The top-level fields describe the primary NIC — the measured
// datapath — exactly as they did before the device layer existed;
// Devices carries the per-device breakdown across every attached DMA
// device.
type Results struct {
	Mode    core.Mode
	Measure sim.Duration

	RxGbps    float64 // bulk + message payload delivered into the local host
	TxGbps    float64 // bulk data delivered from the local host to the remote
	DropRate  float64 // NIC input-buffer drops / arrivals
	MarkRate  float64 // ECN marks / arrivals
	PagesRxed float64 // delivered data in 4KB pages (the normaliser)

	IOTLBPerPage float64
	L1PerPage    float64
	L2PerPage    float64
	L3PerPage    float64
	ReadsPerPage float64
	AcksPerPage  float64
	// RxReadsPerDMA is page-table reads per Rx DMA, measured at the Rx
	// PCIe link — the M that enters the paper's per-packet latency model.
	RxReadsPerDMA float64

	CPUUtil    []float64
	MaxCPUUtil float64
	PCIeRxUtil float64
	MemUtil    float64 // smoothed memory-bus utilisation at window end

	StaleIOTLB  int64
	StalePT     int64
	InvRequests int64
	Timeouts    int64
	Retransmits int64

	// Capability-family accounting over the window: DMA validations
	// against a capability table and grants killed (revokes plus
	// overwriting re-grants). Both zero outside the cap/cap-lazyrevoke
	// modes.
	CapChecks      int64
	CapRevocations int64

	// Request/response workload outputs.
	Completed  int64
	MsgGbps    float64 // completed-exchange payload rate
	MsgRetries int64
	Latency    *stats.Histogram // exchange latency (ns), nil without messages or serving

	// Serving-fleet workload outputs (all zero/nil unless Config.Serve).
	ServeCompleted int64
	ServeGbps      float64 // request+response payload of completed requests
	ServeDeaths    int64   // connection deaths (churn events) in the window
	ServeExpired   int64   // requests abandoned after NIC drops (open loop, no retry)
	ServeLatency   *stats.Histogram

	// IOVA is the primary NIC domain's allocator activity over the
	// window: tree vs magazine traffic, depot moves, and the depot-full
	// overflow path that marks where the rcache stops absorbing churn.
	IOVA iova.Stats

	// Timeline is the samples whose At lies in the measurement window;
	// nil unless Telemetry.SampleEvery was configured.
	Timeline []Sample

	// Devices is the per-device breakdown, in Devices() order (primary
	// NIC first). Summing each device's share of the shared-IOMMU counters
	// reproduces the global counters exactly.
	Devices []DeviceResults

	// Control is the control plane's applied-switch decision log over
	// the whole run (warmup included — each decision carries its
	// virtual time); nil unless Config.Control installed a controller.
	Control []control.Decision

	// Safety is the window's aggregate translation audit; nil unless the
	// auditor ran (Config.Audit or an enabled fault plan). The paper's
	// claim is Safety.Violations() == 0 for every strict-safety mode.
	Safety *fault.SafetyReport
	// FaultsInjected totals the window's injected faults (0 without a
	// plan).
	FaultsInjected int64

	Trace *stats.ReuseTrace // PTcache-L3 locality trace, nil unless enabled
}

// DeviceResults is one attached device's share of the measurement
// window: its own goodput and its slice of the shared IOMMU's work,
// attributed by protection domain.
type DeviceResults struct {
	Name string
	Kind string // "nic", "storage", ...
	Mode core.Mode

	GoodputGbps   float64 // payload the device moved in the window
	MissesPerPage float64 // shared-IOTLB misses per 4KB page of that payload
	WalkReads     int64   // page-table memory reads its translations caused
	Invalidations int64   // invalidation requests its domain submitted

	// Device-side ATS cache activity over the window; all zero when the
	// device has no ATC attached.
	ATSLookups       int64
	ATSHitRate       float64 // ATC hits / lookups
	ATCInvalidations int64   // ATC shoot-down requests the host issued
}

// Percentiles returns P50/P90/P99/P99.9/P99.99 exchange latencies in ns.
func (r Results) Percentiles() [5]int64 {
	if r.Latency == nil {
		return [5]int64{}
	}
	return r.Latency.Percentiles()
}

func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s rx=%6.1fGbps tx=%6.1fGbps drop=%6.3f%% iotlb/pg=%5.2f l1=%5.3f l2=%5.3f l3=%5.3f reads/pg=%5.2f acks/pg=%5.3f cpu=%4.0f%%",
		r.Mode, r.RxGbps, r.TxGbps, r.DropRate*100,
		r.IOTLBPerPage, r.L1PerPage, r.L2PerPage, r.L3PerPage,
		r.ReadsPerPage, r.AcksPerPage, r.MaxCPUUtil*100)
	if r.Latency != nil && r.Latency.Count() > 0 {
		p := r.Percentiles()
		fmt.Fprintf(&b, " p50=%.1fus p99=%.1fus p999=%.1fus",
			float64(p[0])/1000, float64(p[2])/1000, float64(p[3])/1000)
	}
	return b.String()
}

// DeviceTable renders the per-device breakdown, one line per device.
func (r Results) DeviceTable() string {
	var b strings.Builder
	for i, d := range r.Devices {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-10s %-8s %-14s goodput=%6.1fGbps miss/pg=%6.2f walk_reads=%9d inv=%9d",
			d.Name, d.Kind, d.Mode, d.GoodputGbps, d.MissesPerPage,
			d.WalkReads, d.Invalidations)
	}
	return b.String()
}

// devSnap is one device's slice of the counters at a window boundary.
type devSnap struct {
	mmu iommu.Counters // the device domain's share of the shared IOMMU
	st  DeviceStats
	ats ats.Counters // device-side ATS cache (zero without an ATC)
}

// snapshot captures every counter the measurement window diffs at its
// edges and the timeline at every tick.
type snapshot struct {
	at      sim.Time
	mmu     iommu.Counters
	nicSt   nic.Stats
	hostC   hostCounters
	devs    []devSnap
	aud     fault.SafetyReport
	faultC  fault.Counters
	coreBsy []sim.Duration
	rxBusy  sim.Duration
	rxReads int64
	rxDMAs  int64
	sndRtx  int64
	sndTo   int64
	msg     tally
	srv     tally
	payload int64
	iovaSt  iova.Stats
}

// payloadBytes is the payload the host has moved so far: bulk flows in
// both directions, completed message exchanges and completed serving
// requests. Its growth over an interval, in 4KB pages, is the per-page
// normaliser of the miss rates in Results and in the timeline alike.
func (h *Host) payloadBytes() int64 {
	return h.net.c.rxDeliveredBytes + h.net.c.txDeliveredBytes +
		h.msgs.tally().bytes + h.serve.tally().bytes
}

func (h *Host) snap() snapshot {
	s := snapshot{
		at:    h.eng.Now(),
		mmu:   h.mmu.Counters(),
		nicSt: h.net.dev.Stats(),
		hostC: h.net.c,
	}
	for _, d := range h.devices {
		ds := devSnap{
			mmu: h.mmu.CountersOf(d.Domain().ID()),
			st:  d.Stats(),
		}
		if atc := d.Domain().ATC(); atc != nil {
			ds.ats = atc.Counters()
		}
		s.devs = append(s.devs, ds)
	}
	s.aud = h.aud.Report()
	s.faultC = h.inj.Counters()
	for _, c := range h.cores {
		s.coreBsy = append(s.coreBsy, c.BusyTime())
	}
	s.rxBusy = h.net.rx.Stats().BusyTime
	s.rxReads = h.net.rx.Stats().MemReads
	s.rxDMAs = h.net.rx.Stats().DMAs
	for _, f := range h.net.flows {
		s.sndRtx += f.snd.Stats().Retransmits
		s.sndTo += f.snd.Stats().Timeouts
	}
	s.msg, s.srv = h.msgs.tally(), h.serve.tally()
	s.payload = h.payloadBytes()
	s.iovaSt = h.net.dom.AllocatorStats()
	return s
}

// beginMeasure opens a measurement window: latency histograms measure
// the window only, so they reset here; counters are diffed via the
// snapshot it returns instead.
func (h *Host) beginMeasure() snapshot {
	for _, a := range [...]*app{h.msgs, h.serve} {
		if a != nil {
			a.latency.Reset()
		}
	}
	h.net.rx.Latency().Reset()
	h.net.tx.Latency().Reset()
	return h.snap()
}

// Run starts the workloads, runs a warmup window, then measures for the
// given duration and returns normalised Results.
func (h *Host) Run(warmup, measure sim.Duration) Results {
	h.Start()
	h.eng.Run(warmup)
	before := h.beginMeasure()
	h.eng.Run(warmup + measure)
	after := h.snap()
	return h.results(before, after)
}

func (h *Host) results(before, after snapshot) Results {
	dt := after.at - before.at
	r := Results{Mode: h.cfg.Mode, Measure: dt}
	if h.ctl != nil {
		r.Control = h.ctl.Decisions()
	}
	if dt <= 0 {
		return r
	}

	rxBytes := after.hostC.rxDeliveredBytes - before.hostC.rxDeliveredBytes
	txBytes := after.hostC.txDeliveredBytes - before.hostC.txDeliveredBytes

	r.RxGbps = stats.Gbps(rxBytes, int64(dt))
	r.TxGbps = stats.Gbps(txBytes, int64(dt))
	r.MsgGbps = stats.Gbps(after.msg.bytes-before.msg.bytes, int64(dt))
	r.ServeGbps = stats.Gbps(after.srv.bytes-before.srv.bytes, int64(dt))
	// Message payload travels the Rx path in both patterns' bulk
	// direction measurements; fold it into RxGbps for the LocalClient
	// pattern (bulk inbound) and leave Redis-style accounting to
	// MsgGbps.
	if h.msgs != nil && !h.msgs.inbound {
		r.RxGbps += r.MsgGbps
	}

	arrived := after.nicSt.Arrived - before.nicSt.Arrived
	dropped := after.nicSt.Dropped - before.nicSt.Dropped
	marked := after.nicSt.Marked - before.nicSt.Marked
	if arrived > 0 {
		r.DropRate = float64(dropped) / float64(arrived)
		r.MarkRate = float64(marked) / float64(arrived)
	}

	pages := float64(after.payload-before.payload) / 4096
	if pages <= 0 {
		pages = 1
	}
	r.PagesRxed = pages

	dm := func(a, b int64) float64 { return float64(a-b) / pages }
	r.IOTLBPerPage = dm(after.mmu.IOTLBMisses, before.mmu.IOTLBMisses)
	r.L1PerPage = dm(after.mmu.L1Misses, before.mmu.L1Misses)
	r.L2PerPage = dm(after.mmu.L2Misses, before.mmu.L2Misses)
	r.L3PerPage = dm(after.mmu.L3Misses, before.mmu.L3Misses)
	r.ReadsPerPage = dm(after.mmu.MemReads, before.mmu.MemReads)
	r.AcksPerPage = dm(after.hostC.acksSent, before.hostC.acksSent)
	if d := after.rxDMAs - before.rxDMAs; d > 0 {
		r.RxReadsPerDMA = float64(after.rxReads-before.rxReads) / float64(d)
	}

	// Cores are created on demand, so one may be newer than the window.
	for i, c := range h.cores {
		var prev sim.Duration
		if i < len(before.coreBsy) {
			prev = before.coreBsy[i]
		}
		u := float64(c.BusyTime()-prev) / float64(dt)
		r.CPUUtil = append(r.CPUUtil, u)
		if u > r.MaxCPUUtil {
			r.MaxCPUUtil = u
		}
	}
	r.PCIeRxUtil = float64(h.net.rx.Stats().BusyTime-before.rxBusy) / float64(dt)
	r.MemUtil = h.bus.Utilization()

	r.StaleIOTLB = after.mmu.StaleIOTLBUses - before.mmu.StaleIOTLBUses
	r.StalePT = after.mmu.StalePTUses - before.mmu.StalePTUses
	r.InvRequests = after.mmu.InvRequests - before.mmu.InvRequests
	r.CapChecks = after.mmu.CapChecks - before.mmu.CapChecks
	r.CapRevocations = after.mmu.CapRevocations - before.mmu.CapRevocations
	r.Retransmits = after.sndRtx - before.sndRtx
	r.Timeouts = after.sndTo - before.sndTo
	r.Completed = after.msg.completed - before.msg.completed
	r.MsgRetries = after.msg.retries - before.msg.retries
	r.ServeCompleted = after.srv.completed - before.srv.completed
	r.ServeDeaths = after.srv.deaths - before.srv.deaths
	r.ServeExpired = after.srv.expired - before.srv.expired
	r.IOVA = after.iovaSt.Sub(before.iovaSt)
	if h.msgs != nil {
		r.Latency = &h.msgs.latency
	}
	if h.serve != nil {
		r.ServeLatency = &h.serve.latency
		if r.Latency == nil {
			r.Latency = r.ServeLatency
		}
	}
	r.Timeline = h.timelineWindow(before.at, after.at)

	// Devices are built only in New, so both snapshots list the same
	// devices.
	for i, d := range h.devices {
		b, a := before.devs[i], after.devs[i]
		bytes := a.st.Bytes - b.st.Bytes
		dr := DeviceResults{
			Name:          d.Name(),
			Kind:          d.Kind(),
			Mode:          d.Domain().Mode(),
			GoodputGbps:   stats.Gbps(bytes, int64(dt)),
			MissesPerPage: stats.PerPage(a.mmu.IOTLBMisses-b.mmu.IOTLBMisses, bytes),
			WalkReads:     a.mmu.MemReads - b.mmu.MemReads,
			Invalidations: a.mmu.InvRequests - b.mmu.InvRequests,

			ATSLookups:       a.ats.Lookups - b.ats.Lookups,
			ATCInvalidations: a.mmu.ATCInvRequests - b.mmu.ATCInvRequests,
		}
		if dr.ATSLookups > 0 {
			dr.ATSHitRate = float64(a.ats.Hits-b.ats.Hits) / float64(dr.ATSLookups)
		}
		r.Devices = append(r.Devices, dr)
	}

	if h.aud != nil {
		sr := after.aud.Sub(before.aud)
		r.Safety = &sr
	}
	r.FaultsInjected = after.faultC.Total() - before.faultC.Total()

	r.Trace = h.net.dom.Trace()
	return r
}
