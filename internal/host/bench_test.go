package host

import (
	"fmt"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// BenchmarkClusterRun times Cluster.Run on simbench's fns-rdma-sharded
// configuration (8-host F&S RDMA-write incast, 1024-entry ATS) for 1 ms
// of warm-up and 4 ms of measurement, on one engine shard and on two.
// Each iteration runs a freshly built cluster; the build is not timed.
func BenchmarkClusterRun(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := NewCluster(ClusterConfig{Hosts: 8, Traffic: Incast, Op: transport.Write, Shards: shards,
					Host: Config{Mode: core.FNS, ATSEntries: 1024, Seed: 1}})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.Run(sim.Millisecond, 4*sim.Millisecond)
			}
		})
	}
}
