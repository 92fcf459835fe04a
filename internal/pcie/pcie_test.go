package pcie

import (
	"testing"

	"fastsafe/internal/race"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

func TestServiceTimeSerializationFloor(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	// 4KB with no reads: 4096*8/128 = 256ns > 65ns.
	if got := l.ServiceTime(4096, 0); got != 256 {
		t.Fatalf("ServiceTime = %v, want 256", got)
	}
}

func TestServiceTimeTranslationDominates(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	// 65 + 2*197 = 459 > 256.
	if got := l.ServiceTime(4096, 2); got != 459 {
		t.Fatalf("ServiceTime = %v, want 459", got)
	}
}

func TestSubmitCompletesAfterService(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	var doneAt sim.Time = -1
	l.Submit(4096, 0, func() { doneAt = e.Now() })
	e.RunAll()
	if doneAt != 256 {
		t.Fatalf("completed at %v, want 256", doneAt)
	}
}

func TestFIFOQueueing(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	var order []int
	l.Submit(4096, 0, func() { order = append(order, 1) }) // 256ns
	l.Submit(4096, 0, func() { order = append(order, 2) }) // 256ns more
	if !l.Busy() {
		t.Fatal("link should be busy")
	}
	e.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 512 {
		t.Fatalf("second completion at %v, want 512", e.Now())
	}
	s := l.Stats()
	if s.DMAs != 2 || s.Bytes != 8192 {
		t.Fatalf("stats = %+v", s)
	}
	if s.QueueTime != 256 {
		t.Fatalf("QueueTime = %v, want 256", s.QueueTime)
	}
}

func TestThroughputMatchesModel(t *testing.T) {
	// Back-to-back 4KB DMAs with 1.76 avg reads: the paper's ~79.5Gbps.
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	n := 1000
	for i := 0; i < n; i++ {
		reads := 1
		if i%100 < 76 {
			reads = 2
		}
		l.Submit(4096, reads, func() {})
	}
	e.RunAll()
	gbps := float64(n*4096*8) / float64(e.Now())
	if gbps < 77 || gbps > 82 {
		t.Fatalf("throughput = %.1f Gbps, want ~79.5", gbps)
	}
}

func TestUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	l.Submit(4096, 0, func() {})
	e.RunAll()
	// Engine time equals busy time here.
	if u := l.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1", u)
	}
}

func TestOutstandingTracksQueue(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	l.Submit(4096, 0, func() {})
	l.Submit(64, 0, func() {})
	if l.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2", l.Outstanding())
	}
	e.RunAll()
	if l.Outstanding() != 0 || l.Busy() {
		t.Fatal("link did not drain")
	}
	// Small DMA: 65ns base dominates 4ns serialisation.
	if e.Now() != 256+65 {
		t.Fatalf("drained at %v, want 321", e.Now())
	}
}

func TestSharedWalkerCouplesDirections(t *testing.T) {
	// Two links sharing a walker: the second link's translation waits for
	// the first link's reads.
	e := sim.NewEngine(1)
	rx := New(e, 65, 197, 128)
	tx := New(e, 65, 197, 128)
	w := NewWalkerN(e, 197, 1)
	rx.AttachWalker(w)
	tx.AttachWalker(w)
	var rxDone, txDone sim.Time
	rx.Submit(4096, 4, func() { rxDone = e.Now() }) // walker: 4*197 = 788
	tx.Submit(64, 1, func() { txDone = e.Now() })   // queued behind: +197
	e.RunAll()
	if rxDone != 65+788 {
		t.Fatalf("rx done at %v, want 853", rxDone)
	}
	// tx translation completes at 788+197 = 985, plus its l0 = 65.
	if txDone != 985+65 {
		t.Fatalf("tx done at %v, want 1050 (walker contention)", txDone)
	}
	if w.Reads() != 5 {
		t.Fatalf("walker reads = %d, want 5", w.Reads())
	}
}

func TestPrivateWalkersIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	rx := New(e, 65, 197, 128)
	tx := New(e, 65, 197, 128)
	var rxDone, txDone sim.Time
	rx.Submit(4096, 4, func() { rxDone = e.Now() })
	tx.Submit(64, 1, func() { txDone = e.Now() })
	e.RunAll()
	if rxDone != 65+788 {
		t.Fatalf("rx done at %v, want 853", rxDone)
	}
	if txDone != 65+197 {
		t.Fatalf("tx done at %v, want 262 (no contention)", txDone)
	}
}

// A stalled link holds queued DMAs until the stall passes; shortening
// an earlier stall is ignored.
func TestStallHoldsQueuedDMAs(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	l.Stall(1000)
	l.Stall(500) // shortening is a no-op
	var doneAt sim.Time = -1
	l.Submit(4096, 0, func() { doneAt = e.Now() })
	e.RunAll()
	// Held until 1000, then 4096*8/128 = 256ns of serialisation.
	if doneAt != 1256 {
		t.Fatalf("completed at %v, want 1256", doneAt)
	}
	if q := l.Stats().QueueTime; q != 1000 {
		t.Fatalf("QueueTime = %v, want 1000", q)
	}
}

// The latency factor scales per-read walk latency (memory-bandwidth
// contention), and a single-engine walker floors n at 1.
func TestWalkerLatencyFactor(t *testing.T) {
	e := sim.NewEngine(1)
	w := NewWalkerN(e, 100, 0) // n < 1 floors to one engine
	w.SetLatencyFactor(func() float64 { return 2 })
	if got := w.Reserve(1); got != 200 {
		t.Fatalf("Reserve(1) with 2x factor = %v, want 200", got)
	}
	if w.Reads() != 1 {
		t.Fatalf("Reads = %d, want 1", w.Reads())
	}
}

func TestProbesAndLatencyHistogram(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	l.Submit(4096, 2, func() {})
	e.RunAll()
	if l.Latency().Count() != 1 {
		t.Fatalf("latency count = %d, want 1", l.Latency().Count())
	}
	reg := stats.NewRegistry()
	l.RegisterProbes(reg, "pcie.rx.")
	for _, name := range []string{"pcie.rx.dmas", "pcie.rx.bytes", "pcie.rx.mem_reads",
		"pcie.rx.busy_ns", "pcie.rx.queue_ns", "pcie.rx.outstanding"} {
		v, ok := reg.Value(name)
		if !ok {
			t.Fatalf("probe %s not registered", name)
		}
		_ = v
	}
	w := NewWalker(e, 197)
	w.Reserve(3)
	w.RegisterProbes(reg, "walker.")
	if v, ok := reg.Value("walker.reads"); !ok || v != 3 {
		t.Fatalf("walker.reads = %v, %v; want 3, true", v, ok)
	}
}

// TestSubmitToCompleteAllocs locks in the bound server: with a bound done
// callback, a DMA from Submit to completion allocates nothing, and the
// ordinals count every DMA.
func TestSubmitToCompleteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := sim.NewEngine(1)
	l := New(e, 65, 197, 128)
	done := 0
	fn := func() {
		if l.Completed() != int64(done)+1 {
			t.Fatalf("DMA %d completing with Completed() = %d", done, l.Completed())
		}
		done++
	}
	for i := 0; i < 8; i++ {
		l.Submit(4096, i%3, fn)
	}
	e.RunAll()
	if n := testing.AllocsPerRun(1000, func() {
		l.Submit(4096, 1, fn)
		l.Submit(512, 0, fn)
		e.RunAll()
	}); n != 0 {
		t.Errorf("submit-to-complete: %v allocs, want 0", n)
	}
	if l.Submitted() != int64(done) || l.Completed() != int64(done) || l.Outstanding() != 0 {
		t.Fatalf("submitted %d, completed %d, outstanding %d after %d completions",
			l.Submitted(), l.Completed(), l.Outstanding(), done)
	}
}
