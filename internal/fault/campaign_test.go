// Campaign tests drive whole-host simulations through the fault layer, so
// they live outside the package (internal/host imports internal/fault).
package fault_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// runFaulted executes one short faulted simulation and returns everything
// replay determinism is judged on.
type outcome struct {
	rxGbps   float64
	injected fault.Counters
	safety   fault.SafetyReport
}

func runFaulted(t *testing.T, mode core.Mode, plan fault.Plan, seed, fseed int64) outcome {
	t.Helper()
	h, err := host.New(host.Config{
		Mode:      mode,
		Seed:      seed,
		Faults:    plan,
		FaultSeed: fseed,
		Audit:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(2*sim.Millisecond, 5*sim.Millisecond)
	reg := h.Telemetry().Registry()
	o := outcome{rxGbps: r.RxGbps, safety: auditReport(t, reg)}
	if plan.Enabled() { // no plan builds no injector, and no fault.* gauges
		o.injected = injected(t, reg)
	}
	return o
}

// gauge reads a registered instrument as a count.
func gauge(t *testing.T, reg *stats.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return int64(v)
}

// injected reads a host's whole-run fault tallies, warmup included,
// through the injector's telemetry probes.
func injected(t *testing.T, reg *stats.Registry) fault.Counters {
	t.Helper()
	read := func(name string) int64 { return gauge(t, reg, "fault."+name) }
	return fault.Counters{
		InvDrops:        read("inv_drops"),
		InvDelays:       read("inv_delays"),
		WritebackDelays: read("writeback_delays"),
		StrayDMAs:       read("stray_dmas"),
		WildDMAs:        read("wild_dmas"),
		DupDescReads:    read("dup_desc_reads"),
		AllocFails:      read("alloc_fails"),
		RcacheFlushes:   read("rcache_flushes"),
		LinkFlaps:       read("link_flaps"),
		MemSpikes:       read("mem_spikes"),
		Retries:         read("retries"),
	}
}

// auditReport reads a host's whole-run safety audit, warmup included,
// through the auditor's telemetry probes.
func auditReport(t *testing.T, reg *stats.Registry) fault.SafetyReport {
	t.Helper()
	read := func(name string) int64 { return gauge(t, reg, "audit."+name) }
	return fault.SafetyReport{
		Checked:         read("checked"),
		Blocked:         read("blocked"),
		StaleUnmapped:   read("stale_unmapped"),
		StaleRemapped:   read("stale_remapped"),
		StaleATS:        read("stale_ats"),
		StaleCapability: read("stale_cap"),
		Retries:         read("retries"),
	}
}

// faultSeeds is the replay-sweep width: FAULT_SEEDS overrides the local
// default (CI runs 64, the nightly schedule 1024).
func faultSeeds(t *testing.T) int {
	if v := os.Getenv("FAULT_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FAULT_SEEDS=%q: want a positive integer", v)
		}
		return n
	}
	return 8
}

// TestReplayDeterminism is the core contract: the same (plan, seed,
// fault-seed) triple must replay to the identical fault sequence and the
// identical safety report, for every seed in the sweep.
func TestReplayDeterminism(t *testing.T) {
	plan := fault.Campaign(1)
	for i := 0; i < faultSeeds(t); i++ {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			a := runFaulted(t, core.FNS, plan, seed, seed)
			b := runFaulted(t, core.FNS, plan, seed, seed)
			if a != b {
				t.Fatalf("replay diverged:\n  first  %+v\n  second %+v", a, b)
			}
			if a.injected.Total() == 0 {
				t.Fatal("campaign injected nothing — the sweep is vacuous")
			}
			if a.safety.Checked == 0 {
				t.Fatal("auditor checked nothing — the sweep is vacuous")
			}
		})
	}
}

// TestFaultSeedVariesSequence: different fault seeds under the same
// simulation seed must produce different fault sequences — otherwise the
// sweep above explores a single point.
func TestFaultSeedVariesSequence(t *testing.T) {
	plan := fault.Campaign(1)
	a := runFaulted(t, core.FNS, plan, 1, 1)
	b := runFaulted(t, core.FNS, plan, 1, 2)
	if a.injected == b.injected {
		t.Fatalf("fault seeds 1 and 2 injected identical sequences: %+v", a.injected)
	}
}

// randomPlan draws a plan with every fault class active at a random rate,
// bounded so a 7ms simulation still terminates quickly.
func randomPlan(rng *rand.Rand) fault.Plan {
	period := func(lo sim.Duration) sim.Duration {
		return lo + sim.Duration(rng.Int63n(int64(2*sim.Millisecond)))
	}
	return fault.Plan{
		InvDrop:          rng.Float64() * 0.1,
		InvDelay:         rng.Float64() * 0.1,
		WritebackDelay:   rng.Float64() * 0.05,
		StrayDMA:         rng.Float64() * 0.05,
		WildDMA:          rng.Float64() * 0.02,
		DupDescRead:      rng.Float64() * 0.1,
		AllocFail:        rng.Float64() * 0.02,
		RcacheFlushEvery: period(500 * sim.Microsecond),
		LinkFlapEvery:    period(300 * sim.Microsecond),
		MemSpikeEvery:    period(400 * sim.Microsecond),
	}
}

// TestStrictSafetyModesNeverServeStale is the property the whole layer
// exists to check: for ANY generated plan, the strict-safety modes audit
// zero stale-served DMAs. The plans are random but the seed is fixed, so
// a failure replays.
func TestStrictSafetyModesNeverServeStale(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		plan := randomPlan(rng)
		for _, mode := range []core.Mode{core.Strict, core.FNS} {
			mode, plan := mode, plan
			t.Run(fmt.Sprintf("trial%d/%s", trial, mode), func(t *testing.T) {
				t.Parallel()
				o := runFaulted(t, mode, plan, 1, int64(trial+1))
				if v := o.safety.Violations(); v != 0 {
					t.Fatalf("%s served %d stale DMAs under plan %+v\nreport: %+v",
						mode, v, plan, o.safety)
				}
			})
		}
	}
}

// TestStrawmanCaughtWithinOneWindow: the defer-noshootdown strawman skips
// IOTLB shootdowns, so under the canonical campaign the auditor must
// catch stale-served DMAs within a single measurement window — the
// regression that proves the auditor can actually see violations.
func TestStrawmanCaughtWithinOneWindow(t *testing.T) {
	o := runFaulted(t, core.DeferNoShootdown, fault.Campaign(1), 1, 1)
	if v := o.safety.Violations(); v == 0 {
		t.Fatalf("defer-noshootdown audited zero violations: %+v", o.safety)
	}
}

// TestCapabilityFamilySafetyOrdering is the capability-family analogue
// of the strict-vs-strawman pair above, swept across FAULT_SEEDS replay
// schedules: eager cap revokes grants inside the unmap, so like strict
// it must audit zero stale-served DMAs under every fault schedule, while
// cap-lazyrevoke batches revocations and must be caught serving through
// the stale-capability window somewhere in the sweep — and every one of
// its violations must classify as StaleCapability (the capability family
// has no IOTLB or ATC to serve stale from).
func TestCapabilityFamilySafetyOrdering(t *testing.T) {
	plan := fault.Campaign(1)
	var lazyStale atomic.Int64
	t.Run("sweep", func(t *testing.T) {
		for i := 0; i < faultSeeds(t); i++ {
			fseed := int64(i + 1)
			t.Run(fmt.Sprintf("fseed%d", fseed), func(t *testing.T) {
				t.Parallel()
				eager := runFaulted(t, core.Cap, plan, 1, fseed)
				if v := eager.safety.Violations(); v != 0 {
					t.Fatalf("cap served %d stale DMAs under fseed %d: %+v", v, fseed, eager.safety)
				}
				if eager.safety.Checked == 0 {
					t.Fatal("auditor checked nothing under cap — the sweep is vacuous")
				}
				lazy := runFaulted(t, core.CapLazyRevoke, plan, 1, fseed)
				if got, cap := lazy.safety.Violations(), lazy.safety.StaleCapability; got != cap {
					t.Fatalf("cap-lazyrevoke violations %d not all stale-capability (%d): %+v",
						got, cap, lazy.safety)
				}
				lazyStale.Add(lazy.safety.StaleCapability)
			})
		}
	})
	if lazyStale.Load() == 0 {
		t.Fatal("cap-lazyrevoke audited zero stale-capability serves across the sweep — the lazy window is invisible to the auditor")
	}
}

// TestFNSRetainsGoodputUnderCampaign locks the paper-extension headline:
// F&S keeps >=95%% of its fault-free goodput under the full gauntlet.
func TestFNSRetainsGoodputUnderCampaign(t *testing.T) {
	clean := runFaulted(t, core.FNS, fault.Plan{}, 1, 1)
	hot := runFaulted(t, core.FNS, fault.Campaign(1), 1, 1)
	if hot.rxGbps < 0.95*clean.rxGbps {
		t.Fatalf("FNS goodput under campaign = %.1f Gbps, clean = %.1f Gbps (< 95%%)",
			hot.rxGbps, clean.rxGbps)
	}
}

// TestAuditorAloneIsFree: auditing a fault-free run observes without
// perturbing — identical goodput, zero faults, zero violations.
func TestAuditorAloneIsFree(t *testing.T) {
	plain, err := host.New(host.Config{Mode: core.FNS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr := plain.Run(2*sim.Millisecond, 5*sim.Millisecond)
	audited := runFaulted(t, core.FNS, fault.Plan{}, 1, 0)
	if audited.rxGbps != pr.RxGbps {
		t.Fatalf("auditor changed goodput: %.3f vs %.3f", audited.rxGbps, pr.RxGbps)
	}
	if audited.injected.Total() != 0 || audited.safety.Violations() != 0 {
		t.Fatalf("fault-free audited run not clean: %+v / %+v", audited.injected, audited.safety)
	}
	if audited.safety.Checked == 0 {
		t.Fatal("auditor checked nothing")
	}
}
