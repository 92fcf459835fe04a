// Package mem models the host memory system as a shared-bandwidth bus.
//
// The paper's testbed has two DDR4 channels (46.9GB/s theoretical, §2.2)
// and runs with DDIO disabled, so every DMA write, every application copy
// and every IOMMU page-table read contends for the same bandwidth. §2.2
// lists memory contention among the factors that increase protection
// overheads, and cites the DRAM literature [12, 13, 30] for
// latency-under-load inflation.
//
// The bus tracks consumed bytes over a sliding window and exposes a
// latency factor for page-table reads: the paper's fitted l_m = 197ns
// already includes the baseline traffic of a saturated 100Gbps receiver
// (≈80% bus utilisation with DDIO off), so the factor is normalised to 1
// at that calibration point and grows as an M/M/1-style queueing term as
// additional consumers (co-tenant memory hogs, storage DMA) push the bus
// toward saturation.
package mem

import (
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// The bus of the paper's testbed.
const (
	capacityGBps = 46.9                  // theoretical bandwidth (§2.2)
	window       = 100 * sim.Microsecond // utilisation averaging window
	// calibrationUtil is the utilisation at which the latency factor is
	// 1: a saturated 100Gbps receiver with DDIO off. It is typed, so
	// 1-calibrationUtil rounds as a float64 subtraction does.
	calibrationUtil float64 = 0.8
	maxFactor               = 4 // cap on the latency inflation
)

// Bus is the shared memory-bandwidth model.
type Bus struct {
	eng *sim.Engine

	windowBytes int64
	windowStart sim.Time
	util        float64 // EWMA of per-window utilisation
	totalBytes  int64
}

// New returns a bus attached to the engine.
func New(eng *sim.Engine) *Bus {
	return &Bus{eng: eng}
}

// Consume records bytes of memory traffic (DMA writes/reads, copies,
// page-table reads).
func (b *Bus) Consume(bytes int) {
	b.roll()
	b.windowBytes += int64(bytes)
	b.totalBytes += int64(bytes)
}

// roll folds completed windows into the utilisation EWMA.
func (b *Bus) roll() {
	now := b.eng.Now()
	for now-b.windowStart >= window {
		// Bandwidth over the window in GB/s: bytes / ns == GB/s.
		bw := float64(b.windowBytes) / float64(window)
		u := bw / capacityGBps
		if u > 1 {
			u = 1
		}
		b.util = 0.7*b.util + 0.3*u
		b.windowBytes = 0
		b.windowStart += window
		if now-b.windowStart > 100*window {
			// Long idle gap: jump the window forward.
			b.windowStart = now
			b.util *= 0.1
		}
	}
}

// Utilization returns the smoothed bus utilisation in [0, 1].
func (b *Bus) Utilization() float64 {
	b.roll()
	return b.util
}

// LatencyFactor returns the multiplier applied to memory-read latency,
// normalised to 1 at the calibration utilisation:
//
//	factor = (1 - u0) / (1 - u), clamped to [1, maxFactor].
func (b *Bus) LatencyFactor() float64 {
	u := b.Utilization()
	if u <= calibrationUtil {
		return 1
	}
	denom := 1 - u
	if denom < 1e-3 {
		denom = 1e-3
	}
	f := (1 - calibrationUtil) / denom
	if f < 1 {
		f = 1
	}
	if f > maxFactor {
		f = maxFactor
	}
	return f
}

// PeekUtilization returns the utilisation EWMA as last folded, without
// rolling the window. Unlike Utilization it never mutates the bus, so a
// timeline tick or a registry probe can read it without perturbing the
// (deterministic) roll schedule; on a busy bus Consume rolls constantly,
// keeping the peeked value at most one window stale.
func (b *Bus) PeekUtilization() float64 { return b.util }

// RegisterProbes exposes the bus through the registry under prefix
// (e.g. "mem."). All probes are read-only: utilisation is peeked, not
// rolled, so sampling cannot disturb the simulation.
func (b *Bus) RegisterProbes(r *stats.Registry, prefix string) {
	r.GaugeFunc(prefix+"util", b.PeekUtilization)
	r.GaugeFunc(prefix+"bytes", func() float64 { return float64(b.totalBytes) })
}

// Hog is a synthetic co-tenant consuming fixed bandwidth (an antagonist
// application, e.g. a streaming analytics job).
type Hog struct {
	bus      *Bus
	chunk    int
	interval sim.Duration
}

// NewHog starts a hog consuming gbps (decimal GB/s) in 64KB chunks.
func NewHog(bus *Bus, gbps float64) *Hog {
	h := &Hog{bus: bus, chunk: 64 << 10}
	h.interval = sim.Duration(float64(h.chunk) / gbps) // bytes per (B/ns)
	bus.eng.After(h.interval, h.tick)
	return h
}

func (h *Hog) tick() {
	h.bus.Consume(h.chunk)
	h.bus.eng.After(h.interval, h.tick)
}
