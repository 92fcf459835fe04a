package host

import (
	"fmt"
	"runtime"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
)

func servingConfig(mode core.Mode, churn float64, cohortSize int, seed int64) Config {
	return Config{
		Mode:    mode,
		RxFlows: -1, // the open-loop fleet is the workload; no bulk flows
		Audit:   true,
		Seed:    seed,
		Serve:   &ServeConfig{Conns: 24, Churn: churn, Cohort: cohortSize},
	}
}

func runServing(t *testing.T, cfg Config, warmup, measure sim.Duration) Results {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h.Run(warmup, measure)
}

// servingKey folds every deterministic output of a serving run into one
// comparable string (latency percentiles included: replay must
// reproduce the histogram exactly).
func servingKey(r Results) string {
	return fmt.Sprintf("served=%d gbps=%.9g deaths=%d expired=%d iova=%+v safety=%+v pct=%v drop=%.9g cpu=%.9g",
		r.ServeCompleted, r.ServeGbps, r.ServeDeaths, r.ServeExpired,
		r.IOVA, *r.Safety, r.Percentiles(), r.DropRate, r.MaxCPUUtil)
}

// TestCohortExactEquivalence is the cohort abstraction's acceptance
// gate: aggregating K connections per cohort must leave the simulated
// event stream untouched — exact equality on the domain's protection
// counters, the shared IOMMU's counters, the IOVA allocator's work, the
// safety audit, and completion accounting (so aggregate goodput is not
// merely within 1%, it is identical). Only latency attribution may
// differ: at K > 1 the recorded value is the cohort's shared model.
func TestCohortExactEquivalence(t *testing.T) {
	const (
		warmup  = 1 * sim.Millisecond
		measure = 2 * sim.Millisecond
	)
	for _, mode := range []core.Mode{core.Strict, core.FNS, core.Cap} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			type run struct {
				r   Results
				dom core.Counters
				mmu int64 // translations (the whole struct is compared below)
				h   *Host
			}
			runs := map[int]run{}
			for _, k := range []int{1, 4} {
				h, err := New(servingConfig(mode, 0.3, k, 7))
				if err != nil {
					t.Fatal(err)
				}
				r := h.Run(warmup, measure)
				runs[k] = run{r: r, dom: h.Domain().Counters(), h: h}
			}
			exact, agg := runs[1], runs[4]

			if exact.dom != agg.dom {
				t.Errorf("domain counters diverged:\nexact %+v\ncohort %+v", exact.dom, agg.dom)
			}
			if a, b := exact.h.mmu.Counters(), agg.h.mmu.Counters(); a != b {
				t.Errorf("IOMMU counters diverged:\nexact %+v\ncohort %+v", a, b)
			}
			if exact.r.IOVA != agg.r.IOVA {
				t.Errorf("IOVA allocator work diverged:\nexact %+v\ncohort %+v", exact.r.IOVA, agg.r.IOVA)
			}
			if *exact.r.Safety != *agg.r.Safety {
				t.Errorf("safety audit diverged:\nexact %+v\ncohort %+v", *exact.r.Safety, *agg.r.Safety)
			}
			if exact.r.ServeCompleted != agg.r.ServeCompleted || exact.r.ServeDeaths != agg.r.ServeDeaths ||
				exact.r.ServeExpired != agg.r.ServeExpired {
				t.Errorf("completion accounting diverged: exact %d/%d/%d, cohort %d/%d/%d",
					exact.r.ServeCompleted, exact.r.ServeDeaths, exact.r.ServeExpired,
					agg.r.ServeCompleted, agg.r.ServeDeaths, agg.r.ServeExpired)
			}
			// The acceptance bound is <= 1% goodput delta; the construction
			// delivers exact equality.
			if exact.r.ServeGbps != agg.r.ServeGbps {
				t.Errorf("goodput diverged: exact %.9g, cohort %.9g", exact.r.ServeGbps, agg.r.ServeGbps)
			}
			// Non-vacuousness: the window must exercise churn and serving.
			if exact.r.ServeCompleted == 0 || exact.r.ServeDeaths == 0 {
				t.Fatalf("vacuous window: served=%d deaths=%d", exact.r.ServeCompleted, exact.r.ServeDeaths)
			}
			if exact.r.Safety.Checked == 0 {
				t.Fatal("auditor checked nothing")
			}
			// Latency counts match (same completions observed), even though
			// the recorded values differ at K > 1.
			if exact.r.Latency.Count() != agg.r.Latency.Count() {
				t.Errorf("latency observation counts diverged: %d vs %d",
					exact.r.Latency.Count(), agg.r.Latency.Count())
			}
		})
	}
}

// TestServingDeterminismAndReplay is the open-loop generator's
// determinism contract (the PR 4 fault-plan shape): identical Results
// across repeated runs, across the runner pool, and across GOMAXPROCS.
func TestServingDeterminismAndReplay(t *testing.T) {
	const (
		warmup  = 1 * sim.Millisecond
		measure = 2 * sim.Millisecond
	)
	cfg := servingConfig(core.FNS, 0.4, 3, 11)
	want := servingKey(runServing(t, cfg, warmup, measure))

	// Repeated direct runs.
	for i := 0; i < 2; i++ {
		if got := servingKey(runServing(t, cfg, warmup, measure)); got != want {
			t.Fatalf("direct rerun %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	// Across the runner pool: concurrent identical simulations.
	jobs := make([]runner.Job[Results], 4)
	for i := range jobs {
		jobs[i] = func() (Results, error) {
			h, err := New(cfg)
			if err != nil {
				return Results{}, err
			}
			return h.Run(warmup, measure), nil
		}
	}
	rs, err := runner.Collect(runner.Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if got := servingKey(r); got != want {
			t.Fatalf("pooled run %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	// Across GOMAXPROCS.
	old := runtime.GOMAXPROCS(1)
	got := servingKey(runServing(t, cfg, warmup, measure))
	runtime.GOMAXPROCS(old)
	if got != want {
		t.Fatalf("GOMAXPROCS=1 run diverged:\n got %s\nwant %s", got, want)
	}
}

// servingFaultSeeds mirrors clusterFaultSeeds: the churn gauntlet reads
// the FAULT_SEEDS knob and divides by 16 (each seed runs three audited
// modes under churn), so the nightly 1024 becomes 64 serving seeds.
func servingFaultSeeds(t *testing.T) int {
	return clusterFaultSeeds(t)
}

// TestServingChurnFaultCampaign is the churn-rate fault campaign: the
// adversarial plan at intensity 0.3 against the serving fleet at churn
// 0.3, for every strict-safety mode. The churn path is exactly where a
// dropped or delayed invalidation would let a recycled connection
// buffer be read through a stale translation — zero tolerance, and the
// injection must be non-vacuous.
func TestServingChurnFaultCampaign(t *testing.T) {
	const (
		warmup  = 1 * sim.Millisecond
		measure = 2 * sim.Millisecond
	)
	plan := fault.Campaign(0.3)
	seeds := servingFaultSeeds(t)
	for i := 0; i < seeds; i++ {
		seed := int64(1 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, mode := range []core.Mode{core.Strict, core.FNS, core.Cap} {
				cfg := servingConfig(mode, 0.3, 1, seed)
				cfg.Faults = plan
				cfg.FaultSeed = seed
				r := runServing(t, cfg, warmup, measure)
				if r.FaultsInjected == 0 {
					t.Fatalf("%s seed %d: no faults injected (vacuous campaign)", mode, seed)
				}
				if r.Safety.Checked == 0 {
					t.Fatalf("%s seed %d: auditor checked nothing", mode, seed)
				}
				if v := r.Safety.Violations(); v != 0 {
					t.Errorf("%s seed %d: %d stale DMAs served under churn (%+v)", mode, seed, v, *r.Safety)
				}
				if r.ServeCompleted == 0 || r.ServeDeaths == 0 {
					t.Fatalf("%s seed %d: vacuous serving window (served=%d deaths=%d)",
						mode, seed, r.ServeCompleted, r.ServeDeaths)
				}
				// Replay determinism under faults.
				if a, b := servingKey(r), servingKey(runServing(t, cfg, warmup, measure)); a != b {
					t.Errorf("%s seed %d: faulted replay diverged:\n%s\n%s", mode, seed, a, b)
				}
			}
		})
	}
}

// TestServingConfigRejections: invalid serving knobs must fail at host
// construction with the cohort package's descriptive errors.
func TestServingConfigRejections(t *testing.T) {
	bad := []ServeConfig{
		{Conns: 0, Churn: 0.2, Cohort: 1},
		{Conns: 8, Churn: 0, Cohort: 1},
		{Conns: 8, Churn: 1.2, Cohort: 1},
		{Conns: 8, Churn: 0.2, Cohort: -2},
	}
	for _, sc := range bad {
		sc := sc
		if _, err := New(Config{Serve: &sc}); err == nil {
			t.Errorf("New accepted invalid serving config %+v", sc)
		}
	}
}

// TestServingClusterChurn: the serving fleet composes with cluster mode
// — every host runs its own fleet next to the pattern's peer traffic,
// audited, with zero stale-served DMAs and per-host churn progress.
func TestServingClusterChurn(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Hosts:   4,
		Traffic: Pairs,
		Host: Config{
			Mode:  core.FNS,
			Audit: true,
			Seed:  5,
			Serve: &ServeConfig{Conns: 12, Churn: 0.3, Cohort: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run(1*sim.Millisecond, 2*sim.Millisecond)
	if v := r.Violations(); v != 0 {
		t.Fatalf("cluster serving: %d stale DMAs served", v)
	}
	for i, hr := range r.Hosts {
		if hr.ServeCompleted == 0 || hr.ServeDeaths == 0 {
			t.Errorf("host %d: vacuous serving window (served=%d deaths=%d)",
				i, hr.ServeCompleted, hr.ServeDeaths)
		}
	}
}

// The app's own state (read by the churn accounting above via Results)
// stays consistent with the reported counters.
func TestServingAppAccessors(t *testing.T) {
	h, err := New(servingConfig(core.FNS, 0.3, 1, 11))
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(sim.Millisecond, 2*sim.Millisecond)
	app := h.serve
	if app == nil {
		t.Fatal("serving app not installed")
	}
	if app.fleet.Cohort() != 1 {
		t.Fatalf("fleet cohort = %d, want 1", app.fleet.Cohort())
	}
	// The fleet counts deaths since time zero; Results only the
	// measured window after warmup.
	if app.fleet.Deaths() < r.ServeDeaths || r.ServeDeaths == 0 {
		t.Fatalf("Fleet().Deaths() = %d, Results.ServeDeaths = %d",
			app.fleet.Deaths(), r.ServeDeaths)
	}
	if app.latency.Count() == 0 {
		t.Fatal("latency histogram empty after a measured run")
	}
}
