package host

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/sim"
)

// switchSeeds is the transition gauntlet's sweep width: FAULT_SEEDS (CI
// 64, nightly 1024) divided by div with a floor — each seed here costs
// audited runs with mid-run transitions, so the sweep scales down from
// the raw fault-gauntlet directive the same way the cluster campaign
// does.
func switchSeeds(t *testing.T, div, floor int) int {
	n := 32 // local default
	if v := os.Getenv("FAULT_SEEDS"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i < 1 {
			t.Fatalf("FAULT_SEEDS=%q: want a positive integer", v)
		}
		n = i
	}
	if n = n / div; n < floor {
		n = floor
	}
	return n
}

// forceSwitch schedules a mode switch on every NIC domain of h at
// virtual time at, bypassing the controller: the transition protocol
// itself is under test, so the switch must happen regardless of what
// any rule would decide.
func forceSwitch(t *testing.T, h *Host, at sim.Time, to core.Mode) {
	t.Helper()
	h.eng.At(at, func() {
		for _, n := range h.nets {
			if _, err := n.dom.SetMode(to); err != nil {
				t.Errorf("forced switch to %v at %v failed: %v", to, at, err)
			}
		}
	})
}

// TestSwitchCampaignSingleEngine drives the fault campaign across a
// seed sweep with forced mid-run mode switches in both directions —
// odd seeds run fns -> strict -> fns, even seeds strict -> fns ->
// strict — and requires the transition protocol's core guarantees on
// the single-engine path: zero stale-served DMAs across every
// transition (aggregate and per device domain), byte-identical replay
// under the same (seed, fault seed), and a non-vacuous sweep (faults
// injected, auditor active).
func TestSwitchCampaignSingleEngine(t *testing.T) {
	const (
		warmup  = 1 * sim.Millisecond
		measure = 4 * sim.Millisecond
	)
	plan := fault.Campaign(0.5)
	run := func(t *testing.T, seed int64, start, mid core.Mode) Results {
		h, err := New(Config{Mode: start, Seed: seed, Faults: plan, FaultSeed: seed, Audit: true})
		if err != nil {
			t.Fatal(err)
		}
		// Both transitions land inside the measurement window, with
		// in-flight audited traffic on both sides of each switch.
		forceSwitch(t, h, sim.Time(2*sim.Millisecond), mid)
		forceSwitch(t, h, sim.Time(3500*sim.Microsecond), start)
		r := h.Run(warmup, measure)
		if got := h.nets[0].dom.Mode(); got != start {
			t.Fatalf("domain ended in %v, want %v (forced switches did not run)", got, start)
		}
		return r
	}
	for i := 0; i < switchSeeds(t, 8, 4); i++ {
		seed := int64(i + 1)
		start, mid := core.FNS, core.Strict
		if seed%2 == 0 {
			start, mid = core.Strict, core.FNS
		}
		t.Run(fmt.Sprintf("seed%d_%v_to_%v", seed, start, mid), func(t *testing.T) {
			t.Parallel()
			a := run(t, seed, start, mid)
			b := run(t, seed, start, mid)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("faulted run with forced switches did not replay:\n%+v\nvs\n%+v", b, a)
			}
			if a.Safety == nil || a.Safety.Checked == 0 {
				t.Fatal("auditor checked nothing — the sweep is vacuous")
			}
			if v := a.Safety.Violations(); v != 0 {
				t.Fatalf("%d stale DMAs served across %v<->%v transitions", v, start, mid)
			}
			if a.FaultsInjected == 0 {
				t.Fatal("campaign injected nothing — the sweep is vacuous")
			}
		})
	}
}

// TestSwitchCampaignShardedCluster repeats the forced-transition
// gauntlet on the sharded conservative-parallel path: 8 incast hosts on
// 2 shards, every host's NIC domains switched fns -> strict and back
// mid-run while the campaign injects faults. The sharded run must
// replay byte-identically, and neither the sharded nor the unsharded
// engine may serve a single stale DMA across the transitions.
func TestSwitchCampaignShardedCluster(t *testing.T) {
	const (
		hosts   = 8
		warmup  = 1 * sim.Millisecond
		measure = 2 * sim.Millisecond
	)
	plan := fault.Campaign(0.3)
	run := func(t *testing.T, seed int64, shards int) (string, ClusterResults) {
		c, err := NewCluster(ClusterConfig{
			Hosts:   hosts,
			Traffic: Incast,
			Shards:  shards,
			Host: Config{
				Mode:      core.FNS,
				Seed:      seed,
				Faults:    plan,
				FaultSeed: seed,
				Audit:     true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range c.hosts {
			forceSwitch(t, h, sim.Time(1500*sim.Microsecond), core.Strict)
			forceSwitch(t, h, sim.Time(2400*sim.Microsecond), core.FNS)
		}
		r := c.Run(warmup, measure)
		for i, h := range c.hosts {
			if got := h.nets[0].dom.Mode(); got != core.FNS {
				t.Fatalf("host %d ended in %v, want fns (forced switches did not run)", i, got)
			}
		}
		return clusterKey(r), r
	}
	for i := 0; i < switchSeeds(t, 16, 2); i++ {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			key1, r1 := run(t, seed, 2)
			key2, _ := run(t, seed, 2)
			if key1 != key2 {
				t.Fatalf("sharded transition run diverged on replay (seed %d)", seed)
			}
			_, unsharded := run(t, seed, 1)
			for path, r := range map[string]ClusterResults{"sharded": r1, "unsharded": unsharded} {
				if v := r.Violations(); v != 0 {
					t.Fatalf("%s cluster served %d stale DMAs across transitions (seed %d)", path, v, seed)
				}
				var injected, checked int64
				for _, h := range r.Hosts {
					injected += h.FaultsInjected
					if h.Safety != nil {
						checked += h.Safety.Checked
					}
				}
				if injected == 0 || checked == 0 {
					t.Fatalf("%s sweep is vacuous (seed %d): injected=%d checked=%d", path, seed, injected, checked)
				}
			}
		})
	}
}
