package host

import (
	"os"
	"runtime"
	"testing"
	"time"

	"fastsafe/internal/core"
	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

// TestClusterScaleSpeedup is the CI scaling gate: on a multi-core runner
// the sharded engine must cut a 64-host cluster's wall-clock by at least
// 1.5x at four shards. It is opt-in (CLUSTER_SCALE_GATE=1) because the
// measurement needs >= 4 otherwise-idle cores — the default test jobs
// share runners with other work and a loaded box would flake.
//
// Two workloads run. The balanced pairs pattern carries the assertion:
// its events spread almost evenly across shards, so it measures what the
// engine can deliver. The paper's incast is measured and logged but not
// asserted: it concentrates roughly two thirds of all events on the
// receiver's shard, and no conservative-parallel schedule can beat that
// serial fraction (the hot-LP bound) — gating on it would test Amdahl's
// law, not this engine.
func TestClusterScaleSpeedup(t *testing.T) {
	if os.Getenv("CLUSTER_SCALE_GATE") == "" {
		t.Skip("set CLUSTER_SCALE_GATE=1 to run the wall-clock scaling gate (needs >= 4 idle cores)")
	}
	if race.Enabled {
		t.Skip("wall-clock scaling is meaningless under the race detector")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("scaling gate needs >= 4 cores, have %d", n)
	}
	const (
		hosts   = 64
		warmup  = 1 * sim.Millisecond
		measure = 4 * sim.Millisecond
		minGain = 1.5
	)
	// wall returns the best wall time of two runs and the rounds of the
	// last that woke a shard worker (the same in every run).
	wall := func(traffic TrafficPattern, shards int) (best time.Duration, handoffs uint64) {
		for rep := 0; rep < 2; rep++ { // best-of-2 shields against scheduler noise
			c, err := NewCluster(ClusterConfig{
				Hosts:   hosts,
				Traffic: traffic,
				Shards:  shards,
				Host:    Config{Mode: core.FNS, Audit: true},
			})
			if err != nil {
				t.Fatalf("%s/%d shards: %v", traffic, shards, err)
			}
			start := time.Now()
			c.Run(warmup, measure)
			if elapsed := time.Since(start); best == 0 || elapsed < best {
				best = elapsed
			}
			handoffs = c.shards.Handoffs()
		}
		return best, handoffs
	}
	for _, shards := range []int{1, 2, 4} {
		d, handoffs := wall(Incast, shards)
		t.Logf("incast hosts=%d shards=%d wall=%v handoffs=%d (informational: hot-LP bound)",
			hosts, shards, d, handoffs)
	}
	base, _ := wall(Pairs, 1)
	sharded, handoffs := wall(Pairs, 4)
	speedup := float64(base) / float64(sharded)
	t.Logf("pairs hosts=%d: shards=1 %v, shards=4 %v handoffs=%d, speedup %.2fx",
		hosts, base, sharded, handoffs, speedup)
	if speedup < minGain {
		t.Errorf("4-shard speedup %.2fx below the %.1fx gate (base %v, sharded %v)",
			speedup, minGain, base, sharded)
	}
}
