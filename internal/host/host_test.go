package host

import (
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/fabric"
	"fastsafe/internal/iommu"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// run executes a short iperf-style experiment and returns results. Windows
// are kept small so the full test suite stays fast; shape assertions use
// generous margins.
func run(t *testing.T, cfg Config) Results {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h.Run(5*sim.Millisecond, 15*sim.Millisecond)
}

// TestNewRejectsOutOfRange: New and NewCluster hold the one range check
// behind every front end. Each rejection names the field and the value,
// a cluster checks its host config before defaults apply, zero still
// means "default" and a negative RxFlows "no bulk flows", on the primary
// NIC and on an extra one alike.
func TestNewRejectsOutOfRange(t *testing.T) {
	hostCases := []struct {
		cfg  Config
		want string
	}{
		{Config{Cores: -3}, "host: Cores must be >= 0, got -3"},
		{Config{TxFlows: -1}, "host: TxFlows must be >= 0, got -1"},
		{Config{RingPackets: -5}, "host: RingPackets must be >= 0, got -5"},
		{Config{DescriptorPages: -4}, "host: DescriptorPages must be >= 0, got -4"},
		{Config{MTU: -1}, "host: MTU must be 0 (the default) or at least 64 bytes, got -1"},
		{Config{MTU: 1}, "host: MTU must be 0 (the default) or at least 64 bytes, got 1"},
		{Config{MTU: 63}, "host: MTU must be 0 (the default) or at least 64 bytes, got 63"},
		{Config{ATSEntries: -8}, "host: ATSEntries must be >= 0, got -8 (0 disables the device TLB)"},
		{Config{MemHogGBps: -3}, "host: MemHogGBps must be >= 0, got -3"},
		{Config{MemHogStart: -sim.Microsecond}, "host: MemHogStart must be >= 0, got -1000ns"},
		{Config{Seed: -3}, "host: Seed must be >= 0, got -3"},
		{Config{FaultSeed: -2}, "host: FaultSeed must be >= 0, got -2"},
		{Config{Telemetry: TelemetryConfig{SampleEvery: -1}}, "host: Telemetry.SampleEvery must be >= 0, got -1ns"},
		// Inputs that once ran: a negative L3 size read 71.1 Gbps and
		// 2.42 reads/page against 97.4 and 1.37 at defaults.
		{Config{NICBufferBytes: -1}, "host: NICBufferBytes must be >= 0, got -1"},
		{Config{Lm: -100}, "host: Lm must be >= 0, got -100ns"},
		// The IOMMU's cache sizes are iommu.Config's to check.
		{Config{IOMMU: iommu.Config{L3Size: -4}}, "host: iommu: L3Size must be >= 0 (0 keeps the default), got -4"},
		{Config{IOMMU: iommu.Config{IOTLBSets: -1}}, "host: iommu: IOTLBSets must be >= 0 (0 keeps the default), got -1"},
		// An extra NIC gets the primary's rules, named by its index.
		{Config{Topology: Topology{NICs: []NICSpec{{Cores: -2}}}}, "host: Topology.NICs[0].Cores must be >= 0, got -2"},
		{Config{Topology: Topology{NICs: []NICSpec{{}, {TxFlows: -1}}}}, "host: Topology.NICs[1].TxFlows must be >= 0, got -1"},
		{Config{Topology: Topology{NICs: []NICSpec{{MTU: 10}}}}, "host: Topology.NICs[0].MTU must be 0 (the host's) or at least 64 bytes, got 10"},
		{Config{Serve: &ServeConfig{Conns: 0, Churn: 0.2, Cohort: 1}}, "host: Serve.Conns must be >= 1, got 0"},
		{Config{Serve: &ServeConfig{Conns: -4, Churn: 0.2, Cohort: 1}}, "host: Serve.Conns must be >= 1, got -4"},
		{Config{Serve: &ServeConfig{Conns: 8, Churn: 0.2, Cohort: 100}}, "host: Serve.Cohort must be <= Serve.Conns, got 100 > 8"},
		// The fleet's own knobs are cohort.Config's to check.
		{Config{Serve: &ServeConfig{Conns: 8, Churn: 1.5, Cohort: 1}}, "churn rate must be in (0, 1], got 1.5"},
		{Config{Serve: &ServeConfig{Conns: 8, Churn: 0.2, Cohort: 0}}, "cohort size must be >= 1, got 0"},
	}
	for _, c := range hostCases {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
		if _, err := NewCluster(ClusterConfig{Hosts: 2, Host: c.cfg}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewCluster with host %+v: err = %v, want %q", c.cfg, err, c.want)
		}
	}
	clusterCases := []struct {
		cfg  ClusterConfig
		want string
	}{
		{ClusterConfig{Hosts: 1}, "host: Hosts must be >= 2, got 1"},
		{ClusterConfig{Hosts: 2, FlowsPerPair: -3}, "host: FlowsPerPair must be >= 0, got -3"},
		{ClusterConfig{Hosts: 2, Shards: -1}, "host: Shards must be >= 0, got -1"},
		{ClusterConfig{Hosts: 2, Fabric: fabric.Config{PortGbps: -5}}, "host: Fabric.PortGbps must be >= 0, got -5"},
		// Every cluster runs on sim.Shards, whose lookahead is the per-hop
		// propagation: it must be positive on one shard too, and 1ns over
		// two hops rounds to 0.
		{ClusterConfig{Hosts: 2, Fabric: fabric.Config{Prop: 1}}, "host: cluster needs positive fabric propagation, got per-hop 0ns"},
		{ClusterConfig{Hosts: 2, Shards: 2, Fabric: fabric.Config{Prop: 1}}, "host: cluster needs positive fabric propagation, got per-hop 0ns"},
		{ClusterConfig{Hosts: 2, Fabric: fabric.Config{Prop: -sim.Microsecond}}, "host: cluster needs positive fabric propagation, got per-hop -500ns"},
		{ClusterConfig{Hosts: 2, Traffic: "mesh"}, `host: unknown traffic pattern "mesh"`},
	}
	for _, c := range clusterCases {
		if _, err := NewCluster(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewCluster(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
	}
	for _, cfg := range []Config{
		{},
		{RxFlows: -1, TxFlows: 1},
		{MTU: 64},
		{ATSEntries: 4096},
		{IOMMU: iommu.Config{L3Size: 64}},
		{Serve: &ServeConfig{Conns: 8, Churn: 1, Cohort: 8}},
		{Topology: Topology{NICs: []NICSpec{{RxFlows: -1, MTU: 64}}}},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("New(%+v): %v", cfg, err)
		}
	}
}

func TestOffSaturatesLink(t *testing.T) {
	r := run(t, Config{Mode: core.Off})
	if r.RxGbps < 95 {
		t.Fatalf("off throughput = %.1f Gbps, want ~100", r.RxGbps)
	}
	if r.DropRate != 0 {
		t.Fatalf("off drop rate = %v, want 0", r.DropRate)
	}
	if r.ReadsPerPage != 0 {
		t.Fatal("off mode performed page-table reads")
	}
}

func TestStrictDegradesThroughput(t *testing.T) {
	off := run(t, Config{Mode: core.Off})
	strict := run(t, Config{Mode: core.Strict})
	if strict.RxGbps >= off.RxGbps-2 {
		t.Fatalf("strict (%.1f) not below off (%.1f)", strict.RxGbps, off.RxGbps)
	}
	// The unavoidable one-IOTLB-miss-per-page floor (§2.2).
	if strict.IOTLBPerPage < 1.0 {
		t.Fatalf("strict IOTLB misses/page = %.2f, want >= 1", strict.IOTLBPerPage)
	}
	if strict.ReadsPerPage < 1.3 {
		t.Fatalf("strict reads/page = %.2f, want > 1.3", strict.ReadsPerPage)
	}
}

func TestFNSMatchesOff(t *testing.T) {
	off := run(t, Config{Mode: core.Off})
	fns := run(t, Config{Mode: core.FNS})
	if fns.RxGbps < off.RxGbps*0.97 {
		t.Fatalf("FNS (%.1f) below off (%.1f)", fns.RxGbps, off.RxGbps)
	}
	// Figure 7d: zero PTcache-L1/L2 misses, near-zero L3.
	if fns.L1PerPage != 0 || fns.L2PerPage != 0 {
		t.Fatalf("FNS L1/L2 misses per page = %v/%v, want 0", fns.L1PerPage, fns.L2PerPage)
	}
	if fns.L3PerPage > 0.054 {
		t.Fatalf("FNS L3 misses/page = %.3f, want <= 0.054 (§1)", fns.L3PerPage)
	}
	// Still at least one IOTLB miss per page: strict safety is intact.
	if fns.IOTLBPerPage < 1.0 {
		t.Fatalf("FNS IOTLB misses/page = %.2f, want >= 1", fns.IOTLBPerPage)
	}
	if fns.StaleIOTLB != 0 || fns.StalePT != 0 {
		t.Fatal("FNS used stale entries")
	}
}

func TestFNSReducesCostPerMiss(t *testing.T) {
	strict := run(t, Config{Mode: core.Strict})
	fns := run(t, Config{Mode: core.FNS})
	strictCost := strict.ReadsPerPage / strict.IOTLBPerPage
	fnsCost := fns.ReadsPerPage / fns.IOTLBPerPage
	if fnsCost > 1.05 {
		t.Fatalf("FNS reads per miss = %.2f, want ~1", fnsCost)
	}
	if strictCost < 1.25 {
		t.Fatalf("strict reads per miss = %.2f, want inflated", strictCost)
	}
}

func TestStrictDropsGrowWithFlows(t *testing.T) {
	// Figure 2b/2c: drop and ACK rates grow with flow count. The simulated
	// transport regime-shifts at very high flow counts (ECN throttling
	// takes over from drops — see EXPERIMENTS.md), so the monotone range
	// 5 -> 20 is asserted.
	r5 := run(t, Config{Mode: core.Strict, RxFlows: 5})
	r20 := run(t, Config{Mode: core.Strict, RxFlows: 20})
	if r20.DropRate <= r5.DropRate {
		t.Fatalf("drops at 20 flows (%.4f) not above 5 flows (%.4f)", r20.DropRate, r5.DropRate)
	}
	if r20.AcksPerPage <= r5.AcksPerPage {
		t.Fatalf("ACK rate at 20 flows (%.3f) not above 5 flows (%.3f)", r20.AcksPerPage, r5.AcksPerPage)
	}
}

func TestBatchedInvalidationsReduceRequests(t *testing.T) {
	strict := run(t, Config{Mode: core.Strict})
	fns := run(t, Config{Mode: core.FNS})
	// F&S: one ranged request per descriptor vs one per page (Figure 6).
	// Per-ACK invalidations remain in both modes, so the aggregate factor
	// is below the per-descriptor 64x.
	if fns.InvRequests*5 > strict.InvRequests {
		t.Fatalf("FNS InvRequests = %d vs strict %d, want >= 5x fewer", fns.InvRequests, strict.InvRequests)
	}
}

func TestAblationOrdering(t *testing.T) {
	// Figure 12: Linux <= Linux+A, Linux+B < F&S in reads per page
	// (inverted: F&S has the fewest reads).
	strict := run(t, Config{Mode: core.Strict})
	a := run(t, Config{Mode: core.StrictPreserve})
	b := run(t, Config{Mode: core.StrictContig})
	fns := run(t, Config{Mode: core.FNS})
	// F&S is at least as good as either ablation alone (on this iperf
	// microbenchmark ablation A alone can tie; Figure 12's Redis workload
	// separates them further).
	if fns.ReadsPerPage > a.ReadsPerPage+0.02 || fns.ReadsPerPage > b.ReadsPerPage+0.02 {
		t.Fatalf("F&S reads (%.2f) above an ablation (A=%.2f, B=%.2f)",
			fns.ReadsPerPage, a.ReadsPerPage, b.ReadsPerPage)
	}
	if !(a.ReadsPerPage < strict.ReadsPerPage) {
		t.Fatalf("ablation A reads (%.2f) not below strict (%.2f)", a.ReadsPerPage, strict.ReadsPerPage)
	}
	if !(b.ReadsPerPage < strict.ReadsPerPage) {
		t.Fatalf("ablation B reads (%.2f) not below strict (%.2f)", b.ReadsPerPage, strict.ReadsPerPage)
	}
}

func TestDeferredFasterButUnsafeWindowExists(t *testing.T) {
	r := run(t, Config{Mode: core.Deferred})
	if r.RxGbps < 80 {
		t.Fatalf("deferred throughput = %.1f, want high", r.RxGbps)
	}
}

func TestPersistentNoInvalidations(t *testing.T) {
	r := run(t, Config{Mode: core.Persistent})
	if r.InvRequests != 0 {
		t.Fatalf("persistent mode issued %d invalidations", r.InvRequests)
	}
	if r.RxGbps < 90 {
		t.Fatalf("persistent throughput = %.1f", r.RxGbps)
	}
}

func TestSafetyCountersZeroInStrictModes(t *testing.T) {
	for _, m := range []core.Mode{core.Strict, core.StrictPreserve, core.StrictContig, core.FNS} {
		r := run(t, Config{Mode: m})
		if r.StaleIOTLB != 0 || r.StalePT != 0 {
			t.Fatalf("mode %v: stale uses IOTLB=%d PT=%d", m, r.StaleIOTLB, r.StalePT)
		}
	}
}

func TestRingSizeDegradesStrictThroughput(t *testing.T) {
	// Figure 3a: strict throughput falls as ring size grows, and the gap
	// to IOMMU-off widens. (The paper additionally attributes part of this
	// to rising PTcache-L3 misses; in this simulator the allocator's
	// tree-recycling sorts addresses at large rings, so the throughput
	// trend is carried by the CPU-cost term — see EXPERIMENTS.md.)
	smallOff := run(t, Config{Mode: core.Off, RingPackets: 256})
	bigOff := run(t, Config{Mode: core.Off, RingPackets: 2048})
	small := run(t, Config{Mode: core.Strict, RingPackets: 256})
	big := run(t, Config{Mode: core.Strict, RingPackets: 2048})
	if big.RxGbps >= small.RxGbps {
		t.Fatalf("strict at ring 2048 (%.1f) not below ring 256 (%.1f)", big.RxGbps, small.RxGbps)
	}
	gapSmall := smallOff.RxGbps - small.RxGbps
	gapBig := bigOff.RxGbps - big.RxGbps
	if gapBig <= gapSmall {
		t.Fatalf("strict-vs-off gap did not widen with ring size: %.1f -> %.1f", gapSmall, gapBig)
	}
}

func TestFNSCPUGapAtLargeRings(t *testing.T) {
	// §4.4 / Figure 8a: at ring 2048 F&S becomes CPU-bound and trails
	// IOMMU-off slightly, while still beating strict.
	off := run(t, Config{Mode: core.Off, RingPackets: 2048})
	fns := run(t, Config{Mode: core.FNS, RingPackets: 2048})
	strict := run(t, Config{Mode: core.Strict, RingPackets: 2048})
	if fns.RxGbps >= off.RxGbps {
		t.Fatalf("FNS at ring 2048 (%.1f) not below off (%.1f)", fns.RxGbps, off.RxGbps)
	}
	if fns.RxGbps <= strict.RxGbps {
		t.Fatalf("FNS at ring 2048 (%.1f) not above strict (%.1f)", fns.RxGbps, strict.RxGbps)
	}
	if fns.MaxCPUUtil < 0.9 {
		t.Fatalf("FNS at ring 2048 CPU util = %.2f, want near saturation", fns.MaxCPUUtil)
	}
}

func TestFNSL3IndependentOfRingSize(t *testing.T) {
	small := run(t, Config{Mode: core.FNS, RingPackets: 256})
	big := run(t, Config{Mode: core.FNS, RingPackets: 2048})
	if big.L3PerPage > 0.054 || small.L3PerPage > 0.054 {
		t.Fatalf("FNS L3 misses/page = %.3f / %.3f, want <= 0.054 at any ring size",
			small.L3PerPage, big.L3PerPage)
	}
}

func TestBidirectionalInterference(t *testing.T) {
	cfg := Config{Cores: 4, RxFlows: 4, TxFlows: 4}
	cfg.Mode = core.Off
	off, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ro := off.Run(5*sim.Millisecond, 15*sim.Millisecond)
	cfg.Mode = core.Strict
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := st.Run(5*sim.Millisecond, 15*sim.Millisecond)
	cfg.Mode = core.FNS
	fh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf := fh.Run(5*sim.Millisecond, 15*sim.Millisecond)

	if ro.RxGbps < 90 || ro.TxGbps < 90 {
		t.Fatalf("off bidirectional = %.1f/%.1f, want ~100/100", ro.RxGbps, ro.TxGbps)
	}
	// Figure 10: strict Rx suffers badly under Rx/Tx interference.
	if rs.RxGbps > ro.RxGbps*0.8 {
		t.Fatalf("strict bidirectional Rx = %.1f, want far below off (%.1f)", rs.RxGbps, ro.RxGbps)
	}
	// F&S substantially recovers.
	if rf.RxGbps < rs.RxGbps*1.2 {
		t.Fatalf("FNS bidirectional Rx = %.1f, want well above strict (%.1f)", rf.RxGbps, rs.RxGbps)
	}
}

func TestRPCLatencyOrdering(t *testing.T) {
	runRPC := func(mode core.Mode) Results {
		h, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		h.InstallMessages(MsgConfig{Pattern: LocalServes, Streams: 1, Depth: 1,
			ReqBytes: 4096, RespBytes: 4096, AppCPU: 2000, Cores: 1, CoreBase: 5})
		return h.Run(5*sim.Millisecond, 20*sim.Millisecond)
	}
	off := runRPC(core.Off)
	strict := runRPC(core.Strict)
	fns := runRPC(core.FNS)
	if off.Completed == 0 || strict.Completed == 0 || fns.Completed == 0 {
		t.Fatalf("RPCs completed: off=%d strict=%d fns=%d", off.Completed, strict.Completed, fns.Completed)
	}
	offP := off.Percentiles()
	strictP := strict.Percentiles()
	fnsP := fns.Percentiles()
	// Figure 9 shape: strict P99 well above off; F&S within ~1.5x of off.
	if strictP[2] <= offP[2] {
		t.Fatalf("strict P99 (%d) not above off (%d)", strictP[2], offP[2])
	}
	if float64(fnsP[2]) > float64(offP[2])*2.0 {
		t.Fatalf("FNS P99 (%d) more than 2x off (%d)", fnsP[2], offP[2])
	}
}

func TestMessagesLocalClientPattern(t *testing.T) {
	h, err := New(Config{Mode: core.FNS, Cores: 4, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalClient, Streams: 8, Depth: 8,
		ReqBytes: 200, RespBytes: 128 << 10, AppCPU: 1000})
	r := h.Run(5*sim.Millisecond, 15*sim.Millisecond)
	if r.Completed == 0 {
		t.Fatal("no exchanges completed")
	}
	if r.MsgGbps < 50 {
		t.Fatalf("bulk-inbound message rate = %.1f Gbps, want high", r.MsgGbps)
	}
}

func TestMessagesSurviveDropsViaRetry(t *testing.T) {
	// Force heavy drops with a tiny NIC buffer; exchanges must still
	// complete through retries.
	h, err := New(Config{Mode: core.Strict, Cores: 2, RxFlows: -1, NICBufferBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalServes, Streams: 16, Depth: 32,
		ReqBytes: 64 << 10, RespBytes: 64, AppCPU: 500})
	r := h.Run(5*sim.Millisecond, 30*sim.Millisecond)
	if r.Completed == 0 {
		t.Fatal("no exchanges completed under drops")
	}
	if r.MsgRetries == 0 {
		t.Fatal("expected message retries under a tiny buffer")
	}
}

func TestTraceEnabled(t *testing.T) {
	h, err := New(Config{Mode: core.Strict, Telemetry: TelemetryConfig{TraceL3: true, TraceLimit: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(2*sim.Millisecond, 5*sim.Millisecond)
	if r.Trace == nil || len(r.Trace.Dists) == 0 {
		t.Fatal("trace not recorded")
	}
}

func TestCPUUtilisationReported(t *testing.T) {
	r := run(t, Config{Mode: core.Strict})
	if r.MaxCPUUtil <= 0 || r.MaxCPUUtil > 1.5 {
		t.Fatalf("MaxCPUUtil = %v", r.MaxCPUUtil)
	}
	if len(r.CPUUtil) == 0 {
		t.Fatal("no per-core utilisation")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, Config{Mode: core.Strict, Seed: 7})
	b := run(t, Config{Mode: core.Strict, Seed: 7})
	if a.RxGbps != b.RxGbps || a.ReadsPerPage != b.ReadsPerPage || a.DropRate != b.DropRate {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestCoreQueueSerialises(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	var order []int
	c.Do(func() sim.Duration { order = append(order, 1); return 100 }, func() { order = append(order, 2) })
	c.Do(func() sim.Duration { order = append(order, 3); return 50 }, nil)
	eng.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.BusyTime() != 150 {
		t.Fatalf("BusyTime = %v, want 150", c.BusyTime())
	}
	if eng.Now() != 150 {
		t.Fatalf("clock = %v, want 150", eng.Now())
	}
}

func TestWireSerialisationAndECN(t *testing.T) {
	eng := sim.NewEngine(1)
	w := fabric.NewLink(eng, 1, 1000) // 1 Gbps: 4KB takes ~32.8us to serialise
	w.SetECN(4096)
	var marks []bool
	// Offer 2x the line rate for a while: a standing queue builds and the
	// averaged backlog must start marking; transient bursts must not.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 16 * sim.Microsecond
		eng.At(at, func() {
			w.Send(4096, func(ecn bool) { marks = append(marks, ecn) })
		})
	}
	eng.RunAll()
	if marks[0] {
		t.Fatal("first packet marked on an empty wire")
	}
	marked := 0
	for _, m := range marks {
		if m {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no ECN marks despite a standing queue above K")
	}
	r := stats.NewRegistry()
	w.RegisterProbes(r, "")
	if v, _ := r.Value("marked"); v != float64(marked) {
		t.Fatal("mark counter mismatch")
	}
	if v, _ := r.Value("bytes"); v != 100*4096 {
		t.Fatalf("bytes = %v", v)
	}
}

func TestAnalyticModelTracksSimulation(t *testing.T) {
	// §2.2: T = p/(l0 + M*lm) tracks measured throughput within ~10% when
	// PCIe is the bottleneck. Verified on the strict configuration, which
	// is PCIe-bound.
	r := run(t, Config{Mode: core.Strict, RxFlows: 5})
	frame := 4096.0 + 66
	ser := frame * 8 / 128
	svc := 65 + r.RxReadsPerDMA*197
	if ser > svc {
		svc = ser
	}
	est := 4096 * 8 / svc // payload Gbps
	if est > 100 {
		est = 100
	}
	// Allow headroom for drop-loss and queueing effects the closed-form
	// model ignores; the paper reports ~10%.
	rel := est/r.RxGbps - 1
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.20 {
		t.Fatalf("model estimate %.1f vs simulated %.1f: %.0f%% off", est, r.RxGbps, rel*100)
	}
}

func TestFNSHugeCutsIOTLBMisses(t *testing.T) {
	// §5 extension: hugepage-backed descriptors reduce the miss *count*
	// below the strict one-per-page floor, at 2MB revocation granularity.
	fns := run(t, Config{Mode: core.FNS})
	huge := run(t, Config{Mode: core.FNSHuge})
	if huge.RxGbps < 95 {
		t.Fatalf("fns+huge throughput = %.1f", huge.RxGbps)
	}
	if huge.IOTLBPerPage > fns.IOTLBPerPage/3 {
		t.Fatalf("fns+huge IOTLB/page = %.3f, want far below fns (%.3f)",
			huge.IOTLBPerPage, fns.IOTLBPerPage)
	}
	if huge.StaleIOTLB != 0 || huge.StalePT != 0 {
		t.Fatal("fns+huge used stale entries")
	}
	if huge.L1PerPage != 0 || huge.L2PerPage != 0 {
		t.Fatal("fns+huge PTcache-L1/L2 misses should be zero")
	}
}

func TestStorageCoTenantPollutesStrictNotFNS(t *testing.T) {
	// A storage device sharing the IOMMU inflates the network datapath's
	// translation cost under strict mode far more than under F&S.
	runWith := func(mode core.Mode, gbps float64) Results {
		h, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var dev *device.Storage
		if gbps > 0 {
			if dev, err = h.InstallStorage(StorageSpec{ReadGBps: gbps}); err != nil {
				t.Fatal(err)
			}
		}
		r := h.Run(5*sim.Millisecond, 15*sim.Millisecond)
		if dev != nil && dev.Blocks() == 0 {
			t.Fatal("storage device issued no blocks")
		}
		return r
	}
	strictBase := runWith(core.Strict, 0)
	strictLoaded := runWith(core.Strict, 8)
	fnsBase := runWith(core.FNS, 0)
	fnsLoaded := runWith(core.FNS, 8)
	if strictLoaded.ReadsPerPage <= strictBase.ReadsPerPage {
		t.Fatalf("storage load did not inflate strict reads: %.2f vs %.2f",
			strictLoaded.ReadsPerPage, strictBase.ReadsPerPage)
	}
	// Strict loses network throughput to the co-tenant; F&S does not.
	if strictLoaded.RxGbps >= strictBase.RxGbps-2 {
		t.Fatalf("strict under storage load (%.1f) not below baseline (%.1f)",
			strictLoaded.RxGbps, strictBase.RxGbps)
	}
	if fnsLoaded.RxGbps < fnsBase.RxGbps*0.98 {
		t.Fatalf("FNS under storage load (%.1f) fell below baseline (%.1f)",
			fnsLoaded.RxGbps, fnsBase.RxGbps)
	}
	// And strict's read inflation exceeds F&S's (same normaliser).
	if strictLoaded.ReadsPerPage-strictBase.ReadsPerPage <=
		fnsLoaded.ReadsPerPage-fnsBase.ReadsPerPage {
		t.Fatalf("strict read inflation (%.2f) not above FNS's (%.2f)",
			strictLoaded.ReadsPerPage-strictBase.ReadsPerPage,
			fnsLoaded.ReadsPerPage-fnsBase.ReadsPerPage)
	}
}

func TestPacketConservation(t *testing.T) {
	// Every packet that arrives at the NIC is either dropped or eventually
	// delivered; none are lost by the plumbing. Run the flows, then stop
	// the senders (drain) and compare.
	h, err := New(Config{Mode: core.Strict, RxFlows: 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(5*sim.Millisecond, 15*sim.Millisecond)
	// Drain: no new sends (senders are window-limited and we stop pumping
	// by running only the existing queue until empty or quiescent).
	st := h.net.dev.Stats()
	inFlight := bufferBytes(t, h)
	delivered := st.RxDMAs // every Rx DMA completion is a delivery
	if delivered+st.Dropped > st.Arrived {
		t.Fatalf("delivered(%d)+dropped(%d) > arrived(%d)", delivered, st.Dropped, st.Arrived)
	}
	// Whatever is missing must still be buffered or in flight on the link.
	missing := st.Arrived - delivered - st.Dropped
	if missing < 0 || (missing > 0 && inFlight == 0 && missing > 16) {
		t.Fatalf("%d packets unaccounted for (buffer %dB)", missing, inFlight)
	}
}

// bufferBytes reads the primary NIC's input-buffer fill through its
// telemetry probe.
func bufferBytes(t *testing.T, h *Host) int {
	t.Helper()
	v, ok := h.Telemetry().Registry().Value("nic0.buffer_bytes")
	if !ok {
		t.Fatal("nic0.buffer_bytes is not registered")
	}
	return int(v)
}

func TestBufferNeverNegative(t *testing.T) {
	h, err := New(Config{Mode: core.FNS, RxFlows: 8, NICBufferBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	for tick := sim.Duration(1); tick <= 20; tick++ {
		h.Engine().Run(tick * sim.Millisecond)
		if bufferBytes(t, h) < 0 {
			t.Fatalf("negative buffer occupancy at %v", tick)
		}
	}
}

func TestSingleCoreSingleFlow(t *testing.T) {
	r := run(t, Config{Mode: core.FNS, Cores: 1, RxFlows: 1})
	if r.RxGbps < 20 {
		t.Fatalf("single flow throughput = %.1f, want window-limited but alive", r.RxGbps)
	}
	if r.StaleIOTLB != 0 || r.StalePT != 0 {
		t.Fatal("stale uses in single-flow config")
	}
}

func TestJumboMTUEndToEnd(t *testing.T) {
	for _, mode := range []core.Mode{core.Strict, core.FNS} {
		r := run(t, Config{Mode: mode, MTU: 9000, Cores: 8, RxFlows: 8})
		if r.RxGbps < 50 {
			t.Fatalf("mode %v: 9K-MTU throughput = %.1f", mode, r.RxGbps)
		}
		if r.StaleIOTLB != 0 || r.StalePT != 0 {
			t.Fatalf("mode %v: stale uses at 9K MTU", mode)
		}
	}
}

func TestMemoryHogHurtsStrictMost(t *testing.T) {
	// §2.2: memory contention inflates walk latency; strict's multi-read
	// walks expose it to more of that inflation than F&S's one-read walks.
	withHog := func(mode core.Mode, hog float64) Results {
		return run(t, Config{Mode: mode, MemHogGBps: hog})
	}
	offLoaded := withHog(core.Off, 12)
	strictBase := withHog(core.Strict, 0)
	strictLoaded := withHog(core.Strict, 12)
	fnsLoaded := withHog(core.FNS, 12)

	// The hog only hurts via page-table reads: untranslated DMA is immune.
	if offLoaded.RxGbps < 95 {
		t.Fatalf("off under hog = %.1f: the hog must not touch untranslated DMA", offLoaded.RxGbps)
	}
	if strictLoaded.RxGbps >= strictBase.RxGbps-2 {
		t.Fatalf("strict under hog (%.1f) not below baseline (%.1f)",
			strictLoaded.RxGbps, strictBase.RxGbps)
	}
	// F&S still beats strict under contention (fewer reads exposed).
	if fnsLoaded.RxGbps < strictLoaded.RxGbps {
		t.Fatalf("FNS under hog (%.1f) below strict (%.1f)",
			fnsLoaded.RxGbps, strictLoaded.RxGbps)
	}
	if strictLoaded.MemUtil <= strictBase.MemUtil {
		t.Fatal("hog did not raise memory utilisation")
	}
}

func TestDDIOReducesMemoryPressure(t *testing.T) {
	// §4.1: enabling DDIO has negligible impact on IOMMU cache behaviour;
	// it lowers memory-bus pressure (DMA lands in LLC).
	base := run(t, Config{Mode: core.FNS})
	ddio := run(t, Config{Mode: core.FNS, DDIO: true})
	if ddio.MemUtil >= base.MemUtil {
		t.Fatalf("DDIO mem util (%.2f) not below DDIO-off (%.2f)", ddio.MemUtil, base.MemUtil)
	}
	if ddio.RxGbps < base.RxGbps*0.98 {
		t.Fatalf("DDIO throughput regressed: %.1f vs %.1f", ddio.RxGbps, base.RxGbps)
	}
	if d := ddio.ReadsPerPage - base.ReadsPerPage; d > 0.1 || d < -0.1 {
		t.Fatalf("DDIO changed IOMMU behaviour: reads/pg %.2f vs %.2f", ddio.ReadsPerPage, base.ReadsPerPage)
	}
}
