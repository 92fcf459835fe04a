package host

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/sim"
)

// controlScenario is the shared adaptive scenario: F&S under a windowed
// burst of audited device misbehaviour, sampled so every comparison of
// its Results covers the timeline too.
func controlScenario(ctl *control.Config) Config {
	plan := fault.Campaign(1)
	plan.StrayDMA, plan.WildDMA = 0.05, 0.03
	plan.Start, plan.For = 2*sim.Millisecond, 2*sim.Millisecond
	cfg := Config{Mode: core.FNS, Audit: true, Faults: plan, FaultSeed: 1, Control: ctl}
	cfg.Telemetry.SampleEvery = 500 * sim.Microsecond
	return cfg
}

// guardConfig is a guard on metric that switches F&S to strict and back,
// at most once a millisecond per domain.
func guardConfig(metric string) *control.Config {
	return &control.Config{
		Every: 250 * sim.Microsecond,
		Rules: []control.Rule{{
			Kind: control.Guard, Metric: metric,
			High: 1, Low: 0,
			Safe: core.Strict, Fast: core.FNS,
			Cooldown: sim.Millisecond,
		}},
	}
}

func runControlScenario(t *testing.T, cfg Config) Results {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h.Run(1*sim.Millisecond, 5*sim.Millisecond)
}

// TestControllerDisabledByteIdentical is the no-op proof for the control
// plane: an attached controller that never fires a rule — because its
// metric is not registered, or because its threshold is unreachable —
// must leave every simulation result, the timeline included, identical
// to a run with no controller at all. Together with the golden tests
// (which lock the nil-Config path against the pre-refactor outputs) this
// pins "no controller, no change".
func TestControllerDisabledByteIdentical(t *testing.T) {
	base := runControlScenario(t, controlScenario(nil))
	if len(base.Timeline) == 0 {
		t.Fatal("base run sampled no timeline")
	}
	variants := map[string]*control.Config{
		"unregistered metric": {Rules: []control.Rule{{
			Kind: control.Guard, Metric: "no.such.metric",
			High: 1, Safe: core.Strict, Fast: core.FNS,
		}}},
		"unreachable threshold": {Rules: []control.Rule{{
			Kind: control.Guard, Metric: "audit.blocked",
			High: 1e18, Low: -1, Safe: core.Strict, Fast: core.FNS,
		}}},
	}
	for name, ctl := range variants {
		t.Run(name, func(t *testing.T) {
			got := runControlScenario(t, controlScenario(ctl))
			if len(got.Control) != 0 {
				t.Fatalf("inert controller made %d decisions: %v", len(got.Control), got.Control)
			}
			got.Control = nil
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("inert controller changed results:\nbase: %+v\ngot:  %+v", base, got)
			}
		})
	}
}

// TestControllerDecisionsReplayable locks the determinism contract: the
// same configuration replays the same decision log — timestamps, metric
// values, directions — run after run and regardless of GOMAXPROCS.
func TestControllerDecisionsReplayable(t *testing.T) {
	ref := runControlScenario(t, controlScenario(guardConfig("audit.blocked")))
	if len(ref.Control) < 2 {
		t.Fatalf("scenario produced %d decisions, want >= 2 (burst must force a round trip)", len(ref.Control))
	}
	for i := 0; i < 2; i++ {
		got := runControlScenario(t, controlScenario(guardConfig("audit.blocked")))
		if !reflect.DeepEqual(ref.Control, got.Control) {
			t.Fatalf("decision log not replayable:\nref: %v\ngot: %v", ref.Control, got.Control)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := runControlScenario(t, controlScenario(guardConfig("audit.blocked")))
	if !reflect.DeepEqual(ref.Control, got.Control) {
		t.Fatalf("decision log depends on GOMAXPROCS:\nref: %v\ngot: %v", ref.Control, got.Control)
	}
}

// controlKey renders a cluster's results with every host's decision log,
// which ClusterResults.String leaves out, and counts the decisions.
func controlKey(r ClusterResults) (string, int) {
	var b strings.Builder
	b.WriteString(r.String())
	n := 0
	for i, h := range r.Hosts {
		for _, d := range h.Control {
			fmt.Fprintf(&b, "\nhost%d %s", i, d)
		}
		n += len(h.Control)
	}
	return b.String(), n
}

// TestControlRulesAreShardCountInvariant checks that how a cluster is
// sharded cannot change what a rule on the fabric's or a host's counters
// decides. A rule reads only its own host's instruments, so one naming a
// fabric port is inert on every host at any shard count, and the cluster
// runs as it does without the rule; a guard on the host's own
// audit.blocked stays live and decides the same at one shard and at two.
func TestControlRulesAreShardCountInvariant(t *testing.T) {
	run := func(shards int, hc Config) (string, int) {
		c, err := NewCluster(ClusterConfig{Hosts: 4, Traffic: Incast, Shards: shards, Host: hc})
		if err != nil {
			t.Fatal(err)
		}
		return controlKey(c.Run(sim.Millisecond, 4*sim.Millisecond))
	}
	t.Run("fabric metric", func(t *testing.T) {
		want, _ := run(1, Config{Mode: core.FNS})
		for _, shards := range []int{1, 2} {
			got, n := run(shards, Config{Mode: core.FNS, Control: guardConfig("fabric.port0.down.marked")})
			if n != 0 || got != want {
				t.Errorf("shards=%d: a rule on a fabric port made %d decisions and changed the run:\n%s\nwant (no rule):\n%s", shards, n, got, want)
			}
		}
	})
	t.Run("host metric", func(t *testing.T) {
		plan := fault.Campaign(1)
		plan.StrayDMA, plan.WildDMA = 0.05, 0.03
		hc := Config{Mode: core.FNS, Faults: plan, Control: guardConfig("audit.blocked")}
		want, n := run(1, hc)
		if n == 0 {
			t.Fatal("the audit.blocked guard made no decision")
		}
		if got, _ := run(2, hc); got != want {
			t.Errorf("two shards decided differently from one:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestClusterControllersShareRegistry runs every host's controller on a
// sharded cluster whose rounds are handed to shard workers, all reading
// the one cluster registry. Under the race detector it shows that a
// round reads only its own hosts' probes; at any GOMAXPROCS the results,
// decisions and registry dump are the same.
func TestClusterControllersShareRegistry(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctl := guardConfig("audit.blocked")
	ctl.Every = 100 * sim.Microsecond
	ctl.Rules[0].Cooldown = 200 * sim.Microsecond
	run := func() (r ClusterResults, reg string, decisions int) {
		c, err := NewCluster(ClusterConfig{Hosts: 8, Traffic: AllToAll, Shards: 4, Host: Config{
			Mode: core.FNS, Audit: true, Faults: fault.Campaign(1), FaultSeed: 3, Control: ctl,
		}})
		if err != nil {
			t.Fatal(err)
		}
		r = c.Run(sim.Millisecond, 2*sim.Millisecond)
		if c.shards.Handoffs() == 0 {
			t.Fatal("no round was handed to a shard worker")
		}
		_, decisions = controlKey(r)
		t.Logf("GOMAXPROCS=%d: %d of %d rounds handed off, %d decisions",
			runtime.GOMAXPROCS(0), c.shards.Handoffs(), c.Rounds(), decisions)
		return r, c.Registry().String(), decisions
	}
	runtime.GOMAXPROCS(1)
	want, wantReg, n := run()
	if n == 0 {
		t.Fatal("no controller made a decision")
	}
	runtime.GOMAXPROCS(8)
	got, gotReg, _ := run()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results differ at GOMAXPROCS 8:\n%v\nwant:\n%v", got, want)
	}
	if gotReg != wantReg {
		t.Error("registry dump differs at GOMAXPROCS 8")
	}
}
