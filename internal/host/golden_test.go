package host

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// goldenRun renders one configuration the way cmd/fssim prints it: the
// Results summary line plus the per-core utilisation row. The golden
// files lock these bytes across refactors of the construction path.
func goldenRun(t *testing.T, cfg Config, storageGBps float64) string {
	t.Helper()
	if storageGBps > 0 {
		cfg.Topology.Storage = []StorageSpec{{ReadGBps: storageGBps}}
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(2*sim.Millisecond, 6*sim.Millisecond)
	var b strings.Builder
	fmt.Fprintln(&b, r)
	fmt.Fprintf(&b, "per-core CPU utilisation: ")
	for _, u := range r.CPUUtil {
		fmt.Fprintf(&b, "%3.0f%% ", u*100)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// TestGoldenHostRunsByteIdentical locks the fssim-style output of the
// seed configurations: default strict and FNS, a ring sweep point, and
// the storage co-tenant path. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/host -run Golden.
func TestGoldenHostRunsByteIdentical(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	cases := []struct {
		name    string
		cfg     Config
		storage float64
	}{
		{"strict_default", Config{Mode: core.Strict}, 0},
		{"fns_default", Config{Mode: core.FNS}, 0},
		{"strict_ring1024", Config{Mode: core.Strict, RingPackets: 1024}, 0},
		{"strict_storage8", Config{Mode: core.Strict}, 8},
		{"fns_storage8", Config{Mode: core.FNS}, 8},
		{"deferred_seed3", Config{Mode: core.Deferred, Seed: 3}, 0},
	}
	for _, c := range cases {
		got := goldenRun(t, c.cfg, c.storage)
		path := filepath.Join("testdata", "golden", c.name+".txt")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", c.name, err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from golden file:\ngot:\n%s\nwant:\n%s",
				c.name, got, string(want))
		}
	}
}

// trafficGolden is one traffic-path configuration the golden files lock:
// a single host (cfg, optionally with the message app) or a cluster,
// measured for 3ms after a 1ms warmup unless measure says otherwise.
type trafficGolden struct {
	name    string
	cfg     Config
	msgs    *MsgConfig
	cluster *ClusterConfig
	measure sim.Duration
}

// trafficGoldens cover every flow engine and app datapath in the package:
// abstract-remote Rx and Tx bulk flows, both message patterns, the
// serving fleet under faults and abandoning requests, an extra Topology
// NIC, two-sided cluster flows on one and two shards, one-sided READ and
// WRITE, and serving fleets beside cluster flows.
var trafficGoldens = []trafficGolden{
	{name: "bulk_rx2_tx2", cfg: Config{Mode: core.Strict, Cores: 2, RxFlows: 2, TxFlows: 2}},
	{name: "rpc_serves_bulk_tx", cfg: Config{Mode: core.FNS, TxFlows: 1},
		msgs: &MsgConfig{Pattern: LocalServes, Streams: 2, Depth: 2, ReqBytes: 8192, RespBytes: 256,
			AppCPU: 2 * sim.Microsecond, Cores: 1, CoreBase: 6}},
	{name: "msg_client_9k", cfg: Config{Mode: core.Strict, MTU: 9000, RxFlows: -1},
		msgs: &MsgConfig{Pattern: LocalClient, Streams: 4, Depth: 4, ReqBytes: 64, RespBytes: 64 << 10,
			AppCPU: sim.Microsecond}},
	{name: "serve_strict_faults", cfg: Config{Mode: core.Strict, RxFlows: -1, Seed: 5,
		Faults: fault.Campaign(0.3), Serve: &ServeConfig{Conns: 24, Churn: 0.3, Cohort: 1}}},
	{name: "extra_nic_tx", cfg: Config{Mode: core.FNS, Cores: 2, RxFlows: 1,
		Topology: Topology{NICs: []NICSpec{{Cores: 2, RxFlows: 1, TxFlows: 1, MTU: 9000}}}}},
	{name: "cluster_alltoall_1shard", cluster: &ClusterConfig{Hosts: 4, Traffic: AllToAll,
		Host: Config{Mode: core.Strict, Audit: true}}},
	{name: "cluster_alltoall_2shards", cluster: &ClusterConfig{Hosts: 4, Traffic: AllToAll, Shards: 2,
		Host: Config{Mode: core.Strict, Audit: true}}},
	{name: "cluster_pairs_read_atc64", cluster: &ClusterConfig{Hosts: 4, Traffic: Pairs, Op: transport.Read,
		Host: Config{Mode: core.FNS, ATSEntries: 64, Audit: true}}},
	{name: "cluster_incast_write_2shards", cluster: &ClusterConfig{Hosts: 4, Traffic: Incast,
		Op: transport.Write, Shards: 2, Host: Config{Mode: core.Strict, ATSEntries: 1024}}},
	{name: "cluster_alltoall_write_cap", cluster: &ClusterConfig{Hosts: 4, Traffic: AllToAll,
		Op: transport.Write, Host: Config{Mode: core.Cap, Audit: true}}},
	{name: "cluster_pairs_serving", cluster: &ClusterConfig{Hosts: 4, Traffic: Pairs,
		Host: Config{Mode: core.FNS, Serve: &ServeConfig{Conns: 16, Churn: 0.2, Cohort: 1}}}},
	// A small NIC buffer drops request segments, and the open loop
	// abandons a request only once it is servingGCTimeout old: the 8ms
	// window is what lets expiries land inside it.
	{name: "serve_expiry", cfg: Config{Mode: core.Strict, RxFlows: 5, NICBufferBytes: 16 << 10, Seed: 3,
		Serve: &ServeConfig{Conns: 48, Churn: 0.5, Cohort: 1}}, measure: 8 * sim.Millisecond},
	// Both message patterns resending: on two cores busy with four bulk
	// flows an exchange takes longer than the 300us timeout, so the app
	// resends inside the window, several requests of one stream in one
	// housekeeping tick.
	{name: "msg_resend_serves", cfg: resendHost, msgs: &MsgConfig{Pattern: LocalServes, Streams: 2, Depth: 16,
		ReqBytes: 32 << 10, RespBytes: 32 << 10, Timeout: 300 * sim.Microsecond}},
	{name: "msg_resend_client", cfg: resendHost, msgs: &MsgConfig{Pattern: LocalClient, Streams: 2, Depth: 16,
		ReqBytes: 32 << 10, RespBytes: 32 << 10, Timeout: 300 * sim.Microsecond}},
}

var resendHost = Config{Mode: core.Strict, Cores: 2, RxFlows: 4, NICBufferBytes: 64 << 10}

// trafficRun renders one traffic golden: the Results (per host for a
// cluster) of a short window, then every registry instrument.
func trafficRun(t *testing.T, g trafficGolden) string {
	t.Helper()
	warmup, measure := sim.Millisecond, 3*sim.Millisecond
	if g.measure > 0 {
		measure = g.measure
	}
	var b strings.Builder
	if g.cluster != nil {
		c, err := NewCluster(*g.cluster)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, c.Run(warmup, measure))
		fmt.Fprintln(&b, c.Registry())
		return b.String()
	}
	h, err := New(g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.msgs != nil {
		h.InstallMessages(*g.msgs)
	}
	fmt.Fprintln(&b, h.Run(warmup, measure))
	fmt.Fprintln(&b, h.Telemetry().Registry())
	return b.String()
}

// TestGoldenTrafficPaths locks every traffic path byte-for-byte: the
// Results line and the full registry dump of each trafficGoldens run.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/host -run Golden.
func TestGoldenTrafficPaths(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, g := range trafficGoldens {
		got := trafficRun(t, g)
		path := filepath.Join("testdata", "golden", "traffic_"+g.name+".txt")
		if update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", g.name, err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from golden file %s", g.name, path)
		}
	}
}

// runTwice runs g twice in one process and requires the same Results
// and registry dump from both: a run that depends on anything but its
// config and seed, such as the order of a map range, differs between
// the two.
func runTwice(t *testing.T, g trafficGolden) {
	t.Helper()
	if a, b := trafficRun(t, g), trafficRun(t, g); a != b {
		t.Errorf("%s: two runs of one config differ:\nfirst:\n%s\nsecond:\n%s", g.name, a, b)
	}
}

// TestRunTwiceIdentical holds the stressed traffic goldens to run-twice
// equality: both message patterns resending, the serving fleet
// abandoning requests and under a fault campaign, and a congested
// all-to-all cluster on two shards.
func TestRunTwiceIdentical(t *testing.T) {
	stressed := map[string]bool{"msg_resend_serves": true, "msg_resend_client": true,
		"serve_expiry": true, "serve_strict_faults": true, "cluster_alltoall_2shards": true}
	n := 0
	for _, g := range trafficGoldens {
		if stressed[g.name] {
			runTwice(t, g)
			n++
		}
	}
	if n != len(stressed) {
		t.Fatalf("ran %d of the %d stressed configs", n, len(stressed))
	}
}
