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

// TestStorageBlockCycleAllocs: once warm, a storage block — map, DMA,
// completion and unmap — allocates nothing, in the modes the storage
// figures run. Each stage is bound once at construction and each
// block's mapping rides the device's FIFO queues and the domain's
// recycled Tx records.
func TestStorageBlockCycleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, mode := range []core.Mode{core.Strict, core.Deferred, core.FNS, core.Off} {
		h, err := New(Config{Mode: mode, RxFlows: -1, Seed: 1,
			Topology: Topology{Storage: []StorageSpec{{ReadGBps: 8}}}})
		if err != nil {
			t.Fatal(err)
		}
		s := h.stores[0]
		h.Start()
		eng := h.Engine()
		eng.Run(sim.Millisecond)
		// 128KB at 8GB/s: one block every 16.384us.
		const runs, interval = 200, 16384
		b0 := s.blocks
		n := testing.AllocsPerRun(runs, func() { eng.Run(eng.Now() + interval) })
		if got := s.blocks - b0; got < runs {
			t.Fatalf("%v: %d blocks in %d intervals", mode, got, runs+1)
		}
		if n != 0 {
			t.Errorf("%v: %v allocs a block, want 0", mode, n)
		}
	}
}

// TestStrictHostAllocsPerDMA bounds the whole host datapath: a strict
// run with Rx and Tx bulk flows allocates at most 0.1 objects per DMA
// once warm (about 0.03 with go1.24, and 0.28 when each stack ACK was
// boxed and each receiver ACK freshly allocated). The bound leaves room
// for the escape analysis of older toolchains.
func TestStrictHostAllocsPerDMA(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	h, err := New(Config{Mode: core.Strict, TxFlows: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	if per := allocsPerDMA(t, []*Host{h}, h.Engine().Run, 5*sim.Millisecond, 10*sim.Millisecond); per > 0.1 {
		t.Errorf("%.3f allocs per DMA, want at most 0.1", per)
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
	h.Start()
	if per := allocsPerDMA(t, []*Host{h}, h.Engine().Run, 5*sim.Millisecond, 15*sim.Millisecond); per > 0.25 {
		t.Errorf("%.3f allocs per DMA, want at most 0.25", per)
	}
}

// TestClusterAllocsPerDMA bounds whole sharded clusters once warm: fabric
// hops, one-sided frames and ACKs, and credits between shards cross as
// values, so simbench's fns-rdma-sharded cluster (8-host RDMA-write
// incast on two shards, whose rounds run on the calling goroutine) and
// 64-host pairs on four shards (whose rounds are handed to the workers)
// each allocate at most 0.05 objects per DMA. With a closure per hop,
// frame, ACK and credit they allocated about 1.5 and 1.2.
func TestClusterAllocsPerDMA(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name         string
		cfg          ClusterConfig
		warm, window sim.Duration
	}{
		{"fns-rdma-sharded", ClusterConfig{Hosts: 8, Traffic: Incast, Op: transport.Write, Shards: 2,
			Host: Config{Mode: core.FNS, ATSEntries: 1024, Seed: 1}}, 5 * sim.Millisecond, 5 * sim.Millisecond},
		{"pairs 64 hosts 4 shards", ClusterConfig{Hosts: 64, Traffic: Pairs, Shards: 4,
			Host: Config{Mode: core.FNS, Seed: 1}}, 2 * sim.Millisecond, sim.Millisecond},
	} {
		c, err := NewCluster(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		if per := allocsPerDMA(t, c.Hosts(), c.shards.Run, tc.warm, tc.window); per > 0.05 {
			t.Errorf("%s: %.4f allocs per DMA, want at most 0.05", tc.name, per)
		}
	}
}

// allocsPerDMA runs started hosts warm until warm through run, and
// returns the heap objects allocated per DMA of their primary NICs over
// the next window.
func allocsPerDMA(t *testing.T, hosts []*Host, run func(sim.Time), warm, window sim.Duration) float64 {
	t.Helper()
	run(warm)
	dmas := func() (n int64) {
		for _, h := range hosts {
			st := h.net.dev.Stats()
			n += st.RxDMAs + st.TxDMAs
		}
		return n
	}
	var before, after runtime.MemStats
	d0 := dmas()
	runtime.ReadMemStats(&before)
	run(warm + window)
	runtime.ReadMemStats(&after)
	d := dmas() - d0
	if d < 1000 {
		t.Fatalf("only %d DMAs in %v", d, window)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(d)
	t.Logf("%d DMAs, %.4f allocs/DMA", d, per)
	return per
}

// TestSameShardCreditAllocs locks in the inline credit: in simbench's
// fns-rdma-sharded configuration hosts 1-3 share shard 0 with the
// incast sink, so the sink mirrors their delivered bytes into their Tx
// accounting without allocating, while a credit to a host on shard 1 is
// still posted and lands only at the next barrier. That credit is a
// value, so once warm it allocates nothing either: a window of credits
// and the Run that delivers them allocate what the Run alone does (its
// workers' channels).
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
	deadline := sim.Microsecond
	window := func(credits int) func() {
		return func() {
			for k := 0; k < credits; k++ {
				cross.creditPeerTx(4096)
			}
			deadline += sim.Microsecond
			c.shards.Run(deadline)
		}
	}
	before = cross.src.c.txDeliveredBytes
	runOnly := testing.AllocsPerRun(100, window(0))
	if n := testing.AllocsPerRun(100, window(64)); n != runOnly {
		t.Errorf("a window of 64 cross-shard credits allocates %v objects, want the %v its Run alone does", n, runOnly)
	}
	if got := cross.src.c.txDeliveredBytes - before; got != 101*64*4096 {
		t.Fatalf("cross-shard credits landed %d bytes, want %d", got, 101*64*4096)
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
