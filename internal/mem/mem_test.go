package mem

import (
	"testing"

	"fastsafe/internal/sim"
)

// load returns the bytes that keep the bus at utilisation u for one
// window.
func load(u float64) int { return int(u * capacityGBps * float64(window)) }

// consume books bytes at the start of each of n windows from the first.
func consume(e *sim.Engine, b *Bus, first, n, bytes int) {
	for w := first; w < first+n; w++ {
		e.At(sim.Time(w)*sim.Time(window), func() { b.Consume(bytes) })
	}
	e.RunAll()
}

func TestIdleBusFactorOne(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	if f := b.LatencyFactor(); f != 1 {
		t.Fatalf("idle factor = %v, want 1", f)
	}
	if b.Utilization() != 0 {
		t.Fatalf("idle utilisation = %v", b.Utilization())
	}
}

func TestUtilizationTracksConsumption(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	consume(e, b, 0, 100, load(0.5))
	e.At(100*sim.Time(window), func() {})
	e.RunAll()
	u := b.Utilization()
	if u < 0.35 || u > 0.6 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

// TestFactorGrowsPastCalibration: at 90% the factor is (1-0.8)/(1-0.9)
// = 2; at 99% it would be 20, capped at maxFactor.
func TestFactorGrowsPastCalibration(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	consume(e, b, 0, 200, load(0.9))
	if f := b.LatencyFactor(); f < 1.9 || f > 2.01 {
		t.Fatalf("factor at 90%% = %v, want ~2", f)
	}
	consume(e, b, 200, 200, load(0.99))
	if f := b.LatencyFactor(); f != maxFactor {
		t.Fatalf("factor at 99%% = %v, want capped at %v", f, maxFactor)
	}
}

func TestFactorClampedBelowCalibration(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	consume(e, b, 0, 50, load(0.01))
	if f := b.LatencyFactor(); f != 1 {
		t.Fatalf("underloaded factor = %v, want 1", f)
	}
}

func TestIdleGapDecaysUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	consume(e, b, 0, 50, load(0.9))
	hot := b.Utilization()
	// A long quiet period must decay the estimate.
	e.At(e.Now()+1000*sim.Time(window), func() {})
	e.RunAll()
	if cold := b.Utilization(); cold >= hot/2 {
		t.Fatalf("utilisation did not decay: %v -> %v", hot, cold)
	}
}

func TestHogConsumesTargetBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	b := New(e)
	NewHog(b, 8) // 8GB/s
	e.Run(10 * sim.Millisecond)
	// 8GB/s for 10ms = 80MB.
	got := b.totalBytes
	want := int64(80 << 20)
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("hog consumed %d bytes, want ~%d", got, want)
	}
}
