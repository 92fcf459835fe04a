package host

import (
	"runtime"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/race"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
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

// TestHousekeepingAllocs locks in the bound housekeeping tick: on a
// warm host with no traffic, each 200us tick of RTO checks, ACK and
// deferred flushes allocates nothing.
func TestHousekeepingAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	h, err := New(Config{Mode: core.Strict, RxFlows: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	eng := h.Engine()
	eng.Run(sim.Millisecond)
	fired := eng.Fired()
	if n := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + 200*sim.Microsecond)
	}); n != 0 {
		t.Errorf("housekeeping tick: %v allocs, want 0", n)
	}
	if eng.Fired() == fired {
		t.Fatal("no events fired: the ticks are vacuous")
	}
}

// TestStrictHostAllocsPerDMA bounds the whole host datapath: a strict
// run with Rx and Tx bulk flows allocates well under 3 objects per DMA
// once warm (about 0.70 with go1.24, where closures per packet took 16).
// The bound leaves room for the escape analysis of older toolchains.
func TestStrictHostAllocsPerDMA(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	h, err := New(Config{Mode: core.Strict, TxFlows: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocsPerDMA(t, h, sim.Millisecond, 2*sim.Millisecond); per > 3 {
		t.Errorf("%.3f allocs per DMA, want at most 3", per)
	}
}

// TestServingHostAllocsPerDMA bounds the serving datapath in cap-serve's
// host configuration: an audited open-loop fleet under a fault campaign,
// whose every request remaps its connection's Tx buffer. It allocates at
// most 0.25 objects per DMA once warm (about 0.04 with go1.24, where a
// fresh Tx mapping record per request made it 0.99).
func TestServingHostAllocsPerDMA(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	h, err := New(Config{
		Mode: core.Cap, RxFlows: -1, Audit: true, Seed: 1,
		Faults: fault.Campaign(0.3),
		Serve:  &ServeConfig{Conns: 48, Churn: 0.3, Cohort: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocsPerDMA(t, h, 5*sim.Millisecond, 15*sim.Millisecond); per > 0.25 {
		t.Errorf("%.3f allocs per DMA, want at most 0.25", per)
	}
}

// allocsPerDMA starts h, runs it warm for warm and returns the heap
// objects it allocates per NIC DMA over the next window.
func allocsPerDMA(t *testing.T, h *Host, warm, window sim.Duration) float64 {
	t.Helper()
	h.Start()
	h.Engine().Run(warm)
	dmas := func() int64 {
		st := h.net.dev.Stats()
		return st.RxDMAs + st.TxDMAs
	}
	var before, after runtime.MemStats
	d0 := dmas()
	runtime.ReadMemStats(&before)
	h.Engine().Run(warm + window)
	runtime.ReadMemStats(&after)
	d := dmas() - d0
	if d < 1000 {
		t.Fatalf("only %d DMAs in %v", d, window)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(d)
	t.Logf("%d DMAs, %.3f allocs/DMA", d, per)
	return per
}

// TestSameShardCreditAllocs locks in the inline credit: in simbench's
// fns-rdma-sharded configuration hosts 1-3 share shard 0 with the
// incast sink, so the sink mirrors their delivered bytes into their Tx
// accounting without allocating, while a credit to a host on shard 1 is
// still posted and lands only at the next barrier.
func TestSameShardCreditAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	c, err := NewCluster(ClusterConfig{Hosts: 8, Traffic: Incast, Op: transport.Write, Shards: 2,
		Host: Config{Mode: core.FNS, ATSEntries: 1024, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var same, cross *flow
	for _, f := range c.Hosts()[0].net.sinks {
		switch {
		case f.src.h.pl.shard == 0 && same == nil:
			same = f
		case f.src.h.pl.shard != 0 && cross == nil:
			cross = f
		}
	}
	if same == nil || cross == nil {
		t.Fatal("the incast sink has no same-shard and cross-shard flow")
	}
	before := same.src.c.txDeliveredBytes
	if n := testing.AllocsPerRun(1000, func() { same.creditPeerTx(4096) }); n != 0 {
		t.Errorf("same-shard credit: %v allocs, want 0", n)
	}
	if got := same.src.c.txDeliveredBytes - before; got != 1001*4096 {
		t.Fatalf("same-shard credits applied %d bytes, want %d", got, 1001*4096)
	}
	before = cross.src.c.txDeliveredBytes
	cross.creditPeerTx(4096)
	if got := cross.src.c.txDeliveredBytes; got != before {
		t.Fatalf("cross-shard credit applied before the barrier: %d -> %d bytes", before, got)
	}
	c.shards.Run(sim.Microsecond)
	if got := cross.src.c.txDeliveredBytes - before; got != 4096 {
		t.Fatalf("cross-shard credit landed %d bytes at the barrier, want 4096", got)
	}
}

// TestMsgAllocsPerExchange bounds the closed loop's allocations: a warm
// F&S host with no bulk flows, 4 streams of depth 4 moving 16KB one way,
// allocates at most 4 objects per completed exchange in either pattern.
// Pooled request records and bound callbacks hold it near 1.5 with
// go1.24, where a boxed segment and a closure per segment took 16.5.
func TestMsgAllocsPerExchange(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, msgs := range []MsgConfig{
		{Pattern: LocalServes, Streams: 4, Depth: 4, ReqBytes: 16 << 10},
		{Pattern: LocalClient, Streams: 4, Depth: 4, RespBytes: 16 << 10},
	} {
		h, err := New(Config{Mode: core.FNS, RxFlows: -1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		app, err := h.InstallMessages(msgs)
		if err != nil {
			t.Fatal(err)
		}
		h.Start()
		h.Engine().Run(sim.Millisecond)
		var before, after runtime.MemStats
		n0 := app.n.completed
		runtime.ReadMemStats(&before)
		h.Engine().Run(3 * sim.Millisecond)
		runtime.ReadMemStats(&after)
		n := app.n.completed - n0
		if n < 100 {
			t.Fatalf("pattern %d: only %d exchanges in 2ms", msgs.Pattern, n)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(n)
		t.Logf("pattern %d: %d exchanges, %.2f allocs/exchange", msgs.Pattern, n, per)
		if per > 4 {
			t.Errorf("pattern %d: %.2f allocs per exchange, want at most 4", msgs.Pattern, per)
		}
	}
}
