package host

import (
	"reflect"
	"runtime"
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

func guardConfig() *control.Config {
	return &control.Config{
		Every: 250 * sim.Microsecond,
		Rules: []control.Rule{{
			Kind: control.Guard, Metric: "audit.blocked",
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
	ref := runControlScenario(t, controlScenario(guardConfig()))
	if len(ref.Control) < 2 {
		t.Fatalf("scenario produced %d decisions, want >= 2 (burst must force a round trip)", len(ref.Control))
	}
	for i := 0; i < 2; i++ {
		got := runControlScenario(t, controlScenario(guardConfig()))
		if !reflect.DeepEqual(ref.Control, got.Control) {
			t.Fatalf("decision log not replayable:\nref: %v\ngot: %v", ref.Control, got.Control)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := runControlScenario(t, controlScenario(guardConfig()))
	if !reflect.DeepEqual(ref.Control, got.Control) {
		t.Fatalf("decision log depends on GOMAXPROCS:\nref: %v\ngot: %v", ref.Control, got.Control)
	}
}
