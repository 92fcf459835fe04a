package host

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/fabric"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Hosts: 1}); err == nil {
		t.Fatal("1-host cluster accepted")
	}
	_, err := NewCluster(ClusterConfig{Hosts: 4, Traffic: "mesh"})
	if err == nil {
		t.Fatal("unknown traffic pattern accepted")
	}
	if want := `unknown traffic pattern "mesh"`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
	if _, err := ParseTraffic("incast"); err != nil {
		t.Fatal(err)
	}
}

// The 2-host incast cluster is the degenerate case: one sender, one
// receiver, both full hosts. Data flows 1 -> 0 and both ends move the
// same bytes.
func TestClusterDegenerateTwoHosts(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Hosts: 2, Host: Config{Mode: core.FNS, Audit: true}})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run(1*sim.Millisecond, 3*sim.Millisecond)
	if len(r.Hosts) != 2 {
		t.Fatalf("got %d host results", len(r.Hosts))
	}
	if r.Hosts[0].RxGbps <= 1 {
		t.Fatalf("receiver goodput %v, want > 1Gbps", r.Hosts[0].RxGbps)
	}
	if r.Hosts[1].TxGbps <= 1 {
		t.Fatalf("sender goodput %v, want > 1Gbps", r.Hosts[1].TxGbps)
	}
	if r.Hosts[0].TxGbps != 0 || r.Hosts[1].RxGbps != 0 {
		t.Fatalf("incast must be one-way: host0 tx=%v host1 rx=%v",
			r.Hosts[0].TxGbps, r.Hosts[1].RxGbps)
	}
	// Delivery is accounted at both ends in the same event, so the
	// cluster-wide totals agree exactly.
	if r.AggRxGbps != r.AggTxGbps {
		t.Fatalf("agg rx %v != agg tx %v", r.AggRxGbps, r.AggTxGbps)
	}
	if v := r.Violations(); v != 0 {
		t.Fatalf("stale-served DMAs on a healthy cluster: %d", v)
	}
}

func TestClusterTrafficPatterns(t *testing.T) {
	run := func(p TrafficPattern) ClusterResults {
		c, err := NewCluster(ClusterConfig{Hosts: 4, Traffic: p, Host: Config{Mode: core.FNS}})
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(1*sim.Millisecond, 2*sim.Millisecond)
	}

	r := run(Pairs)
	for _, i := range []int{0, 2} {
		if r.Hosts[i].TxGbps <= 0 || r.Hosts[i].RxGbps != 0 {
			t.Fatalf("pairs: host%d tx=%v rx=%v, want sender only", i, r.Hosts[i].TxGbps, r.Hosts[i].RxGbps)
		}
	}
	for _, i := range []int{1, 3} {
		if r.Hosts[i].RxGbps <= 0 || r.Hosts[i].TxGbps != 0 {
			t.Fatalf("pairs: host%d tx=%v rx=%v, want receiver only", i, r.Hosts[i].TxGbps, r.Hosts[i].RxGbps)
		}
	}

	r = run(AllToAll)
	for i, h := range r.Hosts {
		if h.RxGbps <= 0 || h.TxGbps <= 0 {
			t.Fatalf("alltoall: host%d rx=%v tx=%v, want both directions", i, h.RxGbps, h.TxGbps)
		}
	}

	r = run(Incast)
	if r.Hosts[0].RxGbps <= 0 {
		t.Fatal("incast: host0 received nothing")
	}
	for i := 1; i < 4; i++ {
		if r.Hosts[i].RxGbps != 0 {
			t.Fatalf("incast: host%d rx=%v, want 0", i, r.Hosts[i].RxGbps)
		}
	}
}

// Clusters are deterministic like hosts: identical configs produce
// byte-identical rendered results.
func TestClusterDeterminism(t *testing.T) {
	run := func() string {
		c, err := NewCluster(ClusterConfig{
			Hosts: 4, FlowsPerPair: 2,
			Host:   Config{Mode: core.Strict, Audit: true},
			Fabric: fabric.Config{Oversub: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(1*sim.Millisecond, 2*sim.Millisecond).String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("cluster runs diverged:\n%s\n---\n%s", a, b)
	}
}

// Per-host registry counters must reproduce each host's global totals
// exactly, read through the shared cluster registry under "hostN."
// prefixes — the cluster-scale mirror of the per-domain attribution
// property. Clusters run concurrently through the runner pool, so the
// race detector also checks that parallel cluster simulations share no
// state.
func TestClusterRegistrySumsPerHost(t *testing.T) {
	iommuCounters := []string{
		"translations", "iotlb_hits", "iotlb_misses", "walks", "mem_reads",
		"l3_misses", "l2_misses", "l1_misses", "faults",
		"stale_iotlb_uses", "stale_pt_uses", "inv_requests",
		"iotlb_invalidated", "pt_invalidated",
		"ats_requests", "atc_inv_requests", "atc_invalidated",
	}
	type job struct {
		mode   core.Mode
		hosts  int
		shards int
		op     transport.Op
		ats    int
	}
	var jobs []runner.Job[string]
	for _, j := range []job{
		{mode: core.Strict, hosts: 2}, {mode: core.Strict, hosts: 4},
		{mode: core.FNS, hosts: 4}, {mode: core.Deferred, hosts: 3},
		// One-sided flows with a device TLB on a sharded engine: the ATS
		// counters must attribute across shard boundaries exactly like
		// the walk counters do on the shared engine.
		{mode: core.FNS, hosts: 8, shards: 4, op: transport.Write, ats: 256},
	} {
		j := j
		jobs = append(jobs, func(context.Context) (string, error) {
			cfg := ClusterConfig{
				Hosts:   j.hosts,
				Traffic: AllToAll,
				Shards:  j.shards,
				Op:      j.op,
				Host:    Config{Mode: j.mode, Audit: true, ATSEntries: j.ats},
			}
			// A storage co-tenant per host so every host has more than one
			// domain contributing to its totals.
			cfg.Host.Topology.Storage = []StorageSpec{{ReadGBps: 4}}
			c, err := NewCluster(cfg)
			if err != nil {
				return "", err
			}
			c.Run(1*sim.Millisecond, 2*sim.Millisecond)
			reg := c.Registry()
			for i, h := range c.Hosts() {
				for _, name := range iommuCounters {
					global, ok := reg.Value(fmt.Sprintf("host%d.iommu.%s", i, name))
					if !ok {
						return "", fmt.Errorf("host%d.iommu.%s not registered", i, name)
					}
					var sum float64
					for _, d := range h.Devices() {
						v, ok := reg.Value(fmt.Sprintf("host%d.%s.iommu.%s", i, d.Name(), name))
						if !ok {
							return "", fmt.Errorf("host%d.%s.iommu.%s not registered", i, d.Name(), name)
						}
						sum += v
					}
					if sum != global {
						return "", fmt.Errorf("%v hosts=%d host%d.iommu.%s: device sum %v != global %v",
							j.mode, j.hosts, i, name, sum, global)
					}
				}
			}
			return fmt.Sprintf("%v/%d ok", j.mode, j.hosts), nil
		})
	}
	if _, err := runner.Collect(context.Background(), runner.Config{}, jobs); err != nil {
		t.Fatal(err)
	}
}

// The cluster registry holds what a host registers after NewCluster, on
// one shard and on several.
func TestClusterRegistryHoldsLateInstruments(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, err := NewCluster(ClusterConfig{Hosts: 2, Shards: shards, Host: Config{Mode: core.FNS}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Hosts()[1].InstallMessages(MsgConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Registry().Value("host1.rpc.completed"); !ok {
			t.Errorf("shards=%d: host1.rpc.completed not in the cluster registry", shards)
		}
	}
}

// The shared registry also carries the fabric's probes, and hosts in a
// cluster keep fully separate IOMMUs.
func TestClusterRegistryAndIsolation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Hosts: 3, Host: Config{Mode: core.Strict}})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(1*sim.Millisecond, 1*sim.Millisecond)
	reg := c.Registry()
	if _, ok := reg.Value("fabric.port0.down.bytes"); !ok {
		t.Fatal("fabric probes not in the cluster registry")
	}
	if _, ok := reg.Value("host2.nic0.iommu.translations"); !ok {
		t.Fatal("per-host device probes not in the cluster registry")
	}
	seen := map[*Host]bool{}
	for i, h := range c.Hosts() {
		if seen[h] {
			t.Fatalf("host %d duplicated", i)
		}
		seen[h] = true
		for j, o := range c.Hosts() {
			if i != j && h.SharedIOMMU() == o.SharedIOMMU() {
				t.Fatalf("hosts %d and %d share an IOMMU", i, j)
			}
		}
		if h.Engine() != c.shards.Engine(0) {
			t.Fatalf("host %d not on the cluster engine", i)
		}
	}
}
