package host

import (
	"sort"

	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Sample is one timeline row: the host's rates over the SampleEvery
// interval ending At, diffed from the same snapshot the measurement
// window diffs, and three gauges read at At.
type Sample struct {
	At     sim.Time
	RxGbps float64 // bulk Rx plus inbound message payload, as in Results.RxGbps
	TxGbps float64
	// The miss rates are per 4KB page of all payload moved, the
	// normaliser of Results.PagesRxed.
	IOTLBMissPerPage   float64
	PTcacheMissPerPage float64 // L1+L2+L3 misses
	WalkReads          int64
	InvReqs            int64
	CwndMean           float64 // see Host.meanCwnd
	CoreUtilMax        float64 // the busiest core's utilisation
	InvQDepth          int     // deferred invalidations pending, all devices
	MemUtil            float64 // memory-bus EWMA as last folded
}

// sampleTick appends the interval since the previous tick (since the zero
// snapshot, before the first) to the timeline and schedules the next
// tick. It only reads, so a sampled run simulates exactly what an
// unsampled one does.
func (h *Host) sampleTick() {
	every := h.cfg.Telemetry.SampleEvery
	prev, now := h.lastTick, h.snap()
	h.lastTick = now
	rx := now.hostC.rxDeliveredBytes - prev.hostC.rxDeliveredBytes
	if h.msgs != nil && !h.msgs.inbound {
		rx += now.msg.bytes - prev.msg.bytes
	}
	payload := now.payload - prev.payload
	ptMisses := func(s snapshot) int64 { return s.mmu.L1Misses + s.mmu.L2Misses + s.mmu.L3Misses }
	s := Sample{
		At:                 now.at,
		RxGbps:             stats.Gbps(rx, int64(every)),
		TxGbps:             stats.Gbps(now.hostC.txDeliveredBytes-prev.hostC.txDeliveredBytes, int64(every)),
		IOTLBMissPerPage:   stats.PerPage(now.mmu.IOTLBMisses-prev.mmu.IOTLBMisses, payload),
		PTcacheMissPerPage: stats.PerPage(ptMisses(now)-ptMisses(prev), payload),
		WalkReads:          now.mmu.MemReads - prev.mmu.MemReads,
		InvReqs:            now.mmu.InvRequests - prev.mmu.InvRequests,
		CwndMean:           h.meanCwnd(),
		MemUtil:            h.bus.PeekUtilization(),
	}
	// Cores are created on demand, so one may be newer than prev.
	for i, busy := range now.coreBsy {
		if i < len(prev.coreBsy) {
			busy -= prev.coreBsy[i]
		}
		s.CoreUtilMax = max(s.CoreUtilMax, float64(busy)/float64(every))
	}
	for _, d := range h.devices {
		s.InvQDepth += d.Domain().PendingDeferred()
	}
	h.samples = append(h.samples, s)
	h.eng.After(every, h.sampleTickFn)
}

// timelineWindow returns the samples whose At lies in (from, to].
func (h *Host) timelineWindow(from, to sim.Time) []Sample {
	s := h.samples
	lo := sort.Search(len(s), func(i int) bool { return s[i].At > from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].At > to })
	return s[lo:hi]
}
