package host

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// shardTestConfig returns a small cluster config exercising every
// cross-shard path: oversubscribed core (three fabric hops), audit on,
// timeline sampling on.
func shardTestConfig(hosts, shards int, traffic TrafficPattern) ClusterConfig {
	cfg := ClusterConfig{
		Hosts:   hosts,
		Traffic: traffic,
		Shards:  shards,
		Host: Config{
			Mode:      core.FNS,
			Audit:     true,
			Telemetry: TelemetryConfig{SampleEvery: 200 * sim.Microsecond},
		},
	}
	cfg.Fabric.Oversub = 2
	return cfg
}

// resultsKey renders every deterministic scalar of a Results to full
// float precision — the exact comparison key the determinism tests use.
// Timeline samples are excluded: a sharded run's mid-window tick can
// observe the sender-side Tx mirror credit a barrier later than the
// shared-engine run does (see netDev.creditPeerTx) — timeline determinism
// across GOMAXPROCS is asserted separately.
func resultsKey(h Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rx=%v tx=%v drop=%v mark=%v pages=%v", h.RxGbps, h.TxGbps, h.DropRate, h.MarkRate, h.PagesRxed)
	fmt.Fprintf(&b, " iotlb=%v l1=%v l2=%v l3=%v reads=%v acks=%v rpd=%v",
		h.IOTLBPerPage, h.L1PerPage, h.L2PerPage, h.L3PerPage, h.ReadsPerPage, h.AcksPerPage, h.RxReadsPerDMA)
	fmt.Fprintf(&b, " cpu=%v maxcpu=%v pcie=%v mem=%v", h.CPUUtil, h.MaxCPUUtil, h.PCIeRxUtil, h.MemUtil)
	fmt.Fprintf(&b, " staletlb=%d stalept=%d inv=%d to=%d rtx=%d faults=%d",
		h.StaleIOTLB, h.StalePT, h.InvRequests, h.Timeouts, h.Retransmits, h.FaultsInjected)
	if h.Safety != nil {
		fmt.Fprintf(&b, " violations=%d", h.Safety.Violations())
	}
	return b.String()
}

func clusterKey(r ClusterResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "agg_rx=%v agg_tx=%v stale=%d\n", r.AggRxGbps, r.AggTxGbps, r.Violations())
	for i, h := range r.Hosts {
		fmt.Fprintf(&b, "host%d %s\n", i, resultsKey(h))
	}
	return b.String()
}

// floatTol is the relative tolerance for smoothed float gauges in the
// strict sharded-vs-unsharded comparison: EWMA utilisation gauges
// integrate sub-nanosecond scheduling perturbations as ~1e-8 relative
// noise even when every discrete counter matches exactly.
const floatTol = 1e-6

// relaxedTol bounds aggregate throughput for the congested comparisons.
// When two packets from different shards reach the saturated core link in
// the same nanosecond with the same generation time, the coordinator
// arbitrates them by its canonical (timestamp, generation, shard, order)
// rule while the sequential engine replays its own global scheduling
// history — an ordering no shard can observe. Each swap shifts the queue
// chain by one serialization time (~81ns) and under sustained congestion
// the swaps reshuffle ECN marks and timeouts, so congested configs are
// compared statistically: aggregates within relaxedTol, safety verdicts
// exact, and the sharded schedule itself pinned by decomposition
// invariance (identical bytes for 2, 4 and 8 shards).
const relaxedTol = 1e-2

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		bb = -bb
		if bb > m {
			m = bb
		}
	} else if b > m {
		m = b
	}
	return d <= floatTol*m
}

// compareResults asserts the sharded host results match the unsharded
// ones: integer outcomes exactly, float metrics within floatTol.
func compareResults(t *testing.T, label string, got, want Results) {
	t.Helper()
	ints := [][2]int64{
		{got.StaleIOTLB, want.StaleIOTLB}, {got.StalePT, want.StalePT},
		{got.InvRequests, want.InvRequests}, {got.Timeouts, want.Timeouts},
		{got.Retransmits, want.Retransmits}, {got.FaultsInjected, want.FaultsInjected},
	}
	if (got.Safety != nil) != (want.Safety != nil) {
		t.Errorf("%s: Safety presence mismatch", label)
	} else if got.Safety != nil {
		ints = append(ints, [2]int64{got.Safety.Violations(), want.Safety.Violations()})
	}
	for i, p := range ints {
		if p[0] != p[1] {
			t.Errorf("%s: integer metric %d: got %d, want %d", label, i, p[0], p[1])
		}
	}
	floats := [][2]float64{
		{got.RxGbps, want.RxGbps}, {got.TxGbps, want.TxGbps},
		{got.DropRate, want.DropRate}, {got.MarkRate, want.MarkRate},
		{got.PagesRxed, want.PagesRxed}, {got.IOTLBPerPage, want.IOTLBPerPage},
		{got.L1PerPage, want.L1PerPage}, {got.L2PerPage, want.L2PerPage},
		{got.L3PerPage, want.L3PerPage}, {got.ReadsPerPage, want.ReadsPerPage},
		{got.AcksPerPage, want.AcksPerPage}, {got.RxReadsPerDMA, want.RxReadsPerDMA},
		{got.MaxCPUUtil, want.MaxCPUUtil}, {got.PCIeRxUtil, want.PCIeRxUtil},
		{got.MemUtil, want.MemUtil},
	}
	for i, p := range floats {
		if !closeEnough(p[0], p[1]) {
			t.Errorf("%s: float metric %d: got %v, want %v", label, i, p[0], p[1])
		}
	}
	if len(got.CPUUtil) != len(want.CPUUtil) {
		t.Errorf("%s: CPUUtil length %d vs %d", label, len(got.CPUUtil), len(want.CPUUtil))
		return
	}
	for i := range got.CPUUtil {
		if !closeEnough(got.CPUUtil[i], want.CPUUtil[i]) {
			t.Errorf("%s: CPUUtil[%d]: got %v, want %v", label, i, got.CPUUtil[i], want.CPUUtil[i])
		}
	}
}

// withinRel reports |got-want| <= tol*max(|got|,|want|).
func withinRel(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	m := got
	if m < 0 {
		m = -m
	}
	w := want
	if w < 0 {
		w = -w
	}
	if w > m {
		m = w
	}
	return d <= tol*m
}

// TestShardedUnshardedEquivalence is the tentpole property: for every
// traffic pattern and shard count, a sharded cluster reproduces the
// shared-engine cluster's behaviour. Configurations without sustained
// same-nanosecond contention on the shared core link are compared
// strictly — per-host Results with discrete outcomes exact and smoothed
// gauges within floatTol — which is where the protocol-correctness
// burden sits. Congested configurations (incast and all-to-all at
// scale) inevitably hit exact (timestamp, generation-time) ties whose
// sequential arbitration no shard can reproduce (see relaxedTol); there
// the test asserts aggregates within relaxedTol, safety verdicts exact,
// and decomposition invariance: every shard count >= 2 must produce a
// byte-identical full result key, proving the divergence is one fixed
// canonical tie order rather than schedule-dependent drift. CI runs
// this under -race in its own matrix cell, which also exercises the
// parallel rounds for data races.
func TestShardedUnshardedEquivalence(t *testing.T) {
	const (
		warmup  = 1 * sim.Millisecond
		measure = 2 * sim.Millisecond
	)
	type testcase struct {
		traffic TrafficPattern
		hosts   int
		strict  bool
		op      transport.Op // zero value = sendrecv
		ats     int          // device-TLB entries (0 = no ATC)
		// noInvariance skips the cross-shard-count key check: one-sided
		// incast congests at the sink NIC's input buffer, which lives
		// inside the sink's shard, so senders co-sharded with the sink
		// bypass coordinator arbitration entirely and the per-source
		// goodput split shuffles as the decomposition changes. The
		// aggregate and the safety verdict stay pinned (asserted below);
		// only the tie split among saturating senders moves.
		noInvariance bool
	}
	cases := []testcase{
		{traffic: Pairs, hosts: 2, strict: true}, {traffic: Pairs, hosts: 4, strict: true}, {traffic: Pairs, hosts: 8, strict: true},
		{traffic: Incast, hosts: 2, strict: true}, {traffic: Incast, hosts: 4, strict: true}, {traffic: Incast, hosts: 8},
		{traffic: AllToAll, hosts: 2, strict: true}, {traffic: AllToAll, hosts: 4}, {traffic: AllToAll, hosts: 8},
		// One-sided incast through the device ATC exercises the RDMA
		// datapath — remote translate, ATS miss traffic, window-recycle
		// ATC invalidations — on both engine paths.
		{traffic: Incast, hosts: 4, op: transport.Write, ats: 256, noInvariance: true},
	}
	for _, tc := range cases {
		var base *ClusterResults
		shardedKey := ""
		for _, shards := range []int{1, 2, 4, 8} {
			if shards > tc.hosts {
				continue
			}
			label := fmt.Sprintf("%s/%s/%d hosts/%d shards", tc.traffic, tc.op, tc.hosts, shards)
			cfg := shardTestConfig(tc.hosts, shards, tc.traffic)
			cfg.Op = tc.op
			cfg.Host.ATSEntries = tc.ats
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := c.cfg.Shards; got != shards {
				t.Fatalf("%s: Shards() = %d, want %d", label, got, shards)
			}
			r := c.Run(warmup, measure)
			if shards == 1 {
				base = &r
				continue
			}
			if c.Rounds() == 0 {
				t.Errorf("%s: coordinator ran zero rounds", label)
			}
			if key := clusterKey(r); tc.noInvariance {
				// No cross-count key: pin the aggregate instead — the
				// saturated sink delivers the same total no matter how
				// the senders tie-break.
			} else if shardedKey == "" {
				shardedKey = key
			} else if key != shardedKey {
				t.Errorf("%s: result key differs from other shard counts of the same config", label)
			}
			if r.Violations() != base.Violations() {
				t.Errorf("%s: violations %d vs %d", label, r.Violations(), base.Violations())
			}
			if tc.strict {
				if !closeEnough(r.AggRxGbps, base.AggRxGbps) || !closeEnough(r.AggTxGbps, base.AggTxGbps) {
					t.Errorf("%s: aggregates (%v, %v) diverged from (%v, %v)",
						label, r.AggRxGbps, r.AggTxGbps, base.AggRxGbps, base.AggTxGbps)
				}
				for i := range r.Hosts {
					compareResults(t, fmt.Sprintf("%s/host%d", label, i), r.Hosts[i], base.Hosts[i])
				}
				continue
			}
			if !withinRel(r.AggRxGbps, base.AggRxGbps, relaxedTol) || !withinRel(r.AggTxGbps, base.AggTxGbps, relaxedTol) {
				t.Errorf("%s: aggregates (%v, %v) outside %v of (%v, %v)",
					label, r.AggRxGbps, r.AggTxGbps, relaxedTol, base.AggRxGbps, base.AggTxGbps)
			}
			var gotFaults, wantFaults int64
			for i := range r.Hosts {
				gotFaults += r.Hosts[i].FaultsInjected
				wantFaults += base.Hosts[i].FaultsInjected
			}
			if gotFaults != wantFaults {
				t.Errorf("%s: faults injected %d vs %d", label, gotFaults, wantFaults)
			}
		}
	}
}

// TestShardedRegistryDeterminism is the registry-merge property test:
// the dumped stats.Registry of a sharded run — every hostN.* and
// fabric.* instrument — is byte-identical across GOMAXPROCS=1/2/8 and
// across repeated runs of the same seed. The dump includes per-port
// fabric counters from every shard's registry, so it proves both the
// merge and the barrier protocol are schedule-independent. The 8-host
// incast's rounds are too small to hand off, so they all run on the
// calling goroutine; the 8-host all-to-all must hand some of its rounds
// to shard workers, so the property is checked on both paths.
func TestShardedRegistryDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, traffic := range []TrafficPattern{Incast, AllToAll} {
		run := func() (reg, tl string, handoffs uint64) {
			c, err := NewCluster(shardTestConfig(8, 4, traffic))
			if err != nil {
				t.Fatal(err)
			}
			r := c.Run(1*sim.Millisecond, 2*sim.Millisecond)
			var b strings.Builder
			for i, h := range r.Hosts {
				fmt.Fprintf(&b, "host%d %+v\n", i, h.Timeline)
			}
			return c.Registry().String(), b.String(), c.shards.Handoffs()
		}
		wantReg, wantTL := "", ""
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 2; rep++ {
				reg, tl, handoffs := run()
				if traffic == AllToAll && handoffs == 0 {
					t.Fatalf("%s: no round was handed to a shard worker", traffic)
				}
				if wantReg == "" {
					wantReg, wantTL = reg, tl
					continue
				}
				if reg != wantReg {
					t.Fatalf("%s GOMAXPROCS=%d rep=%d: registry dump diverged (len %d vs %d)", traffic, procs, rep, len(reg), len(wantReg))
				}
				if tl != wantTL {
					t.Fatalf("%s GOMAXPROCS=%d rep=%d: sampled timeline diverged", traffic, procs, rep)
				}
			}
		}
		if wantReg == "" || !strings.Contains(wantReg, "host7.") || !strings.Contains(wantReg, "fabric.port7.") || !strings.Contains(wantReg, "fabric.core.") {
			t.Fatalf("%s: merged registry dump is missing expected instruments", traffic)
		}
	}
}

// TestShardedClusterParallelRunners checks that sharded clusters still
// compose with the runner pool (shard goroutines inside runner worker
// goroutines), and that shard counts above Hosts clamp.
func TestShardedClusterParallelRunners(t *testing.T) {
	jobs := make([]runner.Job[string], 3)
	for i := range jobs {
		jobs[i] = func() (string, error) {
			cfg := shardTestConfig(4, 16, Pairs) // 16 clamps to 4 (one host per shard)
			c, err := NewCluster(cfg)
			if err != nil {
				return "", err
			}
			if c.cfg.Shards != 4 {
				return "", fmt.Errorf("Shards() = %d, want clamp to 4", c.cfg.Shards)
			}
			return clusterKey(c.Run(500*sim.Microsecond, 1*sim.Millisecond)), nil
		}
	}
	keys, err := runner.Collect(runner.Config{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if k != keys[0] {
			t.Fatalf("runner %d produced a different sharded result", i)
		}
	}
}

// TestShardHandoffGate checks both sides of the coordinator's hand-off
// gate on the clusters it was sized on, counting rounds after warm-up.
// simbench's fns-rdma-sharded cluster (8-host RDMA-write incast on two
// shards) holds a few events a round, too few to repay waking a worker,
// so at most 1% of its rounds may hand off; 64-host pairs on four shards
// holds about 45 events per shard a round, the parallel work sharding
// exists for, so at least 90% must. The gate reads only event counts, so
// this holds on any runner at any GOMAXPROCS: a threshold that drifts far
// enough to serialise the scaling runs fails here, not only on the
// multi-core scaling gate.
func TestShardHandoffGate(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cfg             ClusterConfig
		warmup, measure sim.Duration
		want            string
		ok              func(rounds, handoffs uint64) bool
	}{
		{
			name: "fns-rdma-sharded",
			cfg: ClusterConfig{Hosts: 8, Traffic: Incast, Op: transport.Write, Shards: 2,
				Host: Config{Mode: core.FNS, ATSEntries: 1024}},
			warmup: 5 * sim.Millisecond, measure: 10 * sim.Millisecond,
			want: "at most 1%",
			ok:   func(rounds, handoffs uint64) bool { return 100*handoffs <= rounds },
		},
		{
			name:   "pairs 64 hosts 4 shards",
			cfg:    ClusterConfig{Hosts: 64, Traffic: Pairs, Shards: 4, Host: Config{Mode: core.FNS}},
			warmup: 1 * sim.Millisecond, measure: 1 * sim.Millisecond,
			want: "at least 90%",
			ok:   func(rounds, handoffs uint64) bool { return 10*handoffs >= 9*rounds },
		},
	} {
		c, err := NewCluster(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c.Start()
		c.shards.Run(tc.warmup)
		rounds, handoffs := c.Rounds(), c.shards.Handoffs()
		c.shards.Run(tc.warmup + tc.measure)
		rounds, handoffs = c.Rounds()-rounds, c.shards.Handoffs()-handoffs
		t.Logf("%s: %d of %d rounds after warm-up handed off", tc.name, handoffs, rounds)
		if rounds == 0 || !tc.ok(rounds, handoffs) {
			t.Errorf("%s: %d of %d rounds after warm-up handed off, want %s", tc.name, handoffs, rounds, tc.want)
		}
	}
}
