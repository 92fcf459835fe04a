package host

import (
	"runtime"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

// TestCoreDoToDoneAllocs locks in the bound core: with bound work and
// done callbacks, an item from Do to done allocates nothing.
func TestCoreDoToDoneAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	done := 0
	work := func() sim.Duration { return 100 }
	fin := func() { done++ }
	for i := 0; i < 8; i++ {
		c.Do(work, fin)
	}
	eng.RunAll()
	if n := testing.AllocsPerRun(1000, func() {
		c.Do(work, fin)
		c.Do(work, nil)
		eng.RunAll()
	}); n != 0 {
		t.Errorf("do-to-done: %v allocs, want 0", n)
	}
	if want := 8 + 1001; done != want {
		t.Fatalf("%d items done, want %d", done, want)
	}
}

// TestStrictHostAllocsPerDMA bounds the whole host datapath: a strict
// run with Rx and Tx bulk flows allocates well under 3 objects per DMA
// once warm (about 1.1 with go1.24, where closures per packet took 16).
// The bound leaves room for the escape analysis of older toolchains.
func TestStrictHostAllocsPerDMA(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	h, err := New(Config{Mode: core.Strict, TxFlows: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	h.Engine().Run(sim.Millisecond)
	dmas := func() int64 {
		st := h.NIC().Stats()
		return st.RxDMAs + st.TxDMAs
	}
	var before, after runtime.MemStats
	d0 := dmas()
	runtime.ReadMemStats(&before)
	h.Engine().Run(3 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	d := dmas() - d0
	if d < 1000 {
		t.Fatalf("only %d DMAs in 2ms", d)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(d)
	t.Logf("%d DMAs, %.3f allocs/DMA", d, per)
	if per > 3 {
		t.Errorf("%.3f allocs per DMA, want at most 3", per)
	}
}
