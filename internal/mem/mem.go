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

// Config sizes the bus. Zero fields take the paper's testbed values.
type Config struct {
	CapacityGBps float64      // theoretical bandwidth (default 46.9, §2.2)
	Window       sim.Duration // utilisation averaging window (default 100µs)
	// CalibrationUtil is the utilisation at which the latency factor is 1
	// (default 0.8: a saturated 100Gbps receiver with DDIO off).
	CalibrationUtil float64
	// MaxFactor caps the latency inflation (default 4).
	MaxFactor float64
}

func (c Config) withDefaults() Config {
	if c.CapacityGBps == 0 {
		c.CapacityGBps = 46.9
	}
	if c.Window == 0 {
		c.Window = 100 * sim.Microsecond
	}
	if c.CalibrationUtil == 0 {
		c.CalibrationUtil = 0.8
	}
	if c.MaxFactor == 0 {
		c.MaxFactor = 4
	}
	return c
}

// Bus is the shared memory-bandwidth model.
type Bus struct {
	eng *sim.Engine
	cfg Config

	windowBytes int64
	windowStart sim.Time
	util        float64 // EWMA of per-window utilisation
	totalBytes  int64
}

// New returns a bus attached to the engine.
func New(eng *sim.Engine, cfg Config) *Bus {
	return &Bus{eng: eng, cfg: cfg.withDefaults()}
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
	for now-b.windowStart >= b.cfg.Window {
		// Bandwidth over the window in GB/s: bytes / ns == GB/s.
		bw := float64(b.windowBytes) / float64(b.cfg.Window)
		u := bw / b.cfg.CapacityGBps
		if u > 1 {
			u = 1
		}
		b.util = 0.7*b.util + 0.3*u
		b.windowBytes = 0
		b.windowStart += b.cfg.Window
		if now-b.windowStart > 100*b.cfg.Window {
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
//	factor = (1 - u0) / (1 - u), clamped to [1, MaxFactor].
func (b *Bus) LatencyFactor() float64 {
	u := b.Utilization()
	u0 := b.cfg.CalibrationUtil
	if u <= u0 {
		return 1
	}
	denom := 1 - u
	if denom < 1e-3 {
		denom = 1e-3
	}
	f := (1 - u0) / denom
	if f < 1 {
		f = 1
	}
	if f > b.cfg.MaxFactor {
		f = b.cfg.MaxFactor
	}
	return f
}

// PeekUtilization returns the utilisation EWMA as last folded, without
// rolling the window. Unlike Utilization it never mutates the bus, so the
// telemetry sampler can read it without perturbing the (deterministic)
// roll schedule; on a busy bus Consume rolls constantly, keeping the
// peeked value at most one window stale.
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
	gbps     float64
	chunk    int
	interval sim.Duration
}

// NewHog starts a hog consuming gbps (decimal GB/s) in 64KB chunks.
func NewHog(bus *Bus, gbps float64) *Hog {
	h := &Hog{bus: bus, gbps: gbps, chunk: 64 << 10}
	h.interval = sim.Duration(float64(h.chunk) / gbps) // bytes per (B/ns)
	bus.eng.After(h.interval, h.tick)
	return h
}

func (h *Hog) tick() {
	h.bus.Consume(h.chunk)
	h.bus.eng.After(h.interval, h.tick)
}
