package mem

import (
	"testing"

	"fastsafe/internal/sim"
)

func TestIdleBusFactorOne(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{})
	if f := b.LatencyFactor(); f != 1 {
		t.Fatalf("idle factor = %v, want 1", f)
	}
	if b.Utilization() != 0 {
		t.Fatalf("idle utilisation = %v", b.Utilization())
	}
}

func TestUtilizationTracksConsumption(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{CapacityGBps: 10, Window: 1000})
	// Consume 5 bytes/ns = 5GB/s = 50% for many windows.
	for w := 0; w < 100; w++ {
		e.At(sim.Time(w*1000), func() { b.Consume(5000) })
	}
	e.RunAll()
	e.At(100_000, func() {})
	e.RunAll()
	u := b.Utilization()
	if u < 0.35 || u > 0.6 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

func TestFactorGrowsPastCalibration(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{CapacityGBps: 10, Window: 1000, CalibrationUtil: 0.5})
	// 9GB/s = 90% utilisation: factor = 0.5/0.1 = 5, capped at 4.
	for w := 0; w < 200; w++ {
		e.At(sim.Time(w*1000), func() { b.Consume(9000) })
	}
	e.RunAll()
	f := b.LatencyFactor()
	if f < 2 {
		t.Fatalf("factor = %v, want inflated past calibration", f)
	}
	if f > 4 {
		t.Fatalf("factor = %v, want capped at 4", f)
	}
}

func TestFactorClampedBelowCalibration(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{CapacityGBps: 100, Window: 1000, CalibrationUtil: 0.8})
	for w := 0; w < 50; w++ {
		e.At(sim.Time(w*1000), func() { b.Consume(1000) }) // 1%
	}
	e.RunAll()
	if f := b.LatencyFactor(); f != 1 {
		t.Fatalf("underloaded factor = %v, want 1", f)
	}
}

func TestIdleGapDecaysUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{CapacityGBps: 10, Window: 1000})
	for w := 0; w < 50; w++ {
		e.At(sim.Time(w*1000), func() { b.Consume(9000) })
	}
	e.RunAll()
	hot := b.Utilization()
	// A long quiet period must decay the estimate.
	e.At(e.Now()+1_000_000, func() {})
	e.RunAll()
	if cold := b.Utilization(); cold >= hot/2 {
		t.Fatalf("utilisation did not decay: %v -> %v", hot, cold)
	}
}

func TestHogConsumesTargetBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e, Config{CapacityGBps: 40})
	NewHog(b, 8) // 8GB/s
	e.Run(10 * sim.Millisecond)
	// 8GB/s for 10ms = 80MB.
	got := b.totalBytes
	want := int64(80 << 20)
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("hog consumed %d bytes, want ~%d", got, want)
	}
}
