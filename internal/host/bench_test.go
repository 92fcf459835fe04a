package host

import (
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// BenchmarkClusterRun times Cluster.Run from a freshly built cluster
// each iteration; the build is not timed. The shards=N cases run
// simbench's fns-rdma-sharded configuration (8-host F&S RDMA-write
// incast, 1024-entry ATS) for 1 ms of warm-up and 4 ms of measurement,
// on one engine shard and on two; its rounds are too small to hand off.
// The pairs cases run clusterscale's audited F&S pairs traffic at 64 and
// 256 hosts on four shards for 1 ms and 1 ms, rounds busy enough to be
// handed to the shard workers, at the scale where per-host cost grows.
func BenchmarkClusterRun(b *testing.B) {
	for _, bc := range []struct {
		name            string
		cfg             ClusterConfig
		warmup, measure sim.Duration
	}{
		{"shards=1", ClusterConfig{Hosts: 8, Traffic: Incast, Op: transport.Write, Shards: 1,
			Host: Config{Mode: core.FNS, ATSEntries: 1024, Seed: 1}}, sim.Millisecond, 4 * sim.Millisecond},
		{"shards=2", ClusterConfig{Hosts: 8, Traffic: Incast, Op: transport.Write, Shards: 2,
			Host: Config{Mode: core.FNS, ATSEntries: 1024, Seed: 1}}, sim.Millisecond, 4 * sim.Millisecond},
		{"pairs/hosts=64/shards=4", ClusterConfig{Hosts: 64, Traffic: Pairs, Shards: 4,
			Host: Config{Mode: core.FNS, Audit: true, Seed: 1}}, sim.Millisecond, sim.Millisecond},
		{"pairs/hosts=256/shards=4", ClusterConfig{Hosts: 256, Traffic: Pairs, Shards: 4,
			Host: Config{Mode: core.FNS, Audit: true, Seed: 1}}, sim.Millisecond, sim.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := NewCluster(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.Run(bc.warmup, bc.measure)
			}
		})
	}
}
