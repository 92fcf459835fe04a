package control

import (
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

func testDomain(t *testing.T, mode core.Mode) *core.Domain {
	t.Helper()
	d, err := core.NewDomain(core.Config{Mode: mode, NumCPUs: 2, DescriptorPages: 16})
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	return d
}

func guardRule() Rule {
	return Rule{Kind: Guard, Metric: "blocked", High: 1, Low: 0,
		Safe: core.Strict, Fast: core.FNS}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := stats.NewRegistry()
	tgt := []Target{{Name: "nic0", Domain: testDomain(t, core.FNS)}}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no rules", Config{}, "no rules"},
		{"bad kind", Config{Rules: []Rule{{Kind: "vibes", Metric: "m", Safe: core.Strict, Fast: core.FNS}}}, `unknown kind "vibes"`},
		{"empty metric", Config{Rules: []Rule{{Kind: Guard, Safe: core.Strict, Fast: core.FNS}}}, "metric must not be empty"},
		{"high below low", Config{Rules: []Rule{{Kind: Guard, Metric: "m", High: 1, Low: 2, Safe: core.Strict, Fast: core.FNS}}}, "high threshold"},
		{"same modes", Config{Rules: []Rule{{Kind: Guard, Metric: "m", Safe: core.FNS, Fast: core.FNS}}}, "nothing to arbitrate"},
		{"unswitchable pair", Config{Rules: []Rule{{Kind: Guard, Metric: "m", High: 1, Safe: core.Strict, Fast: core.Persistent}}}, "cannot switch"},
		{"cross family", Config{Rules: []Rule{{Kind: Guard, Metric: "m", High: 1, Safe: core.Cap, Fast: core.FNS}}}, "capability table"},
		{"unknown domain", Config{Rules: []Rule{{Kind: Guard, Metric: "m", High: 1, Safe: core.Strict, Fast: core.FNS, Domain: "nic9"}}}, `domain "nic9"`},
		{"negative cooldown", Config{Rules: []Rule{{Kind: Guard, Metric: "m", High: 1, Safe: core.Strict, Fast: core.FNS, Cooldown: -1}}}, "cooldown"},
	}
	for _, tc := range cases {
		_, err := New(eng, reg, "", tc.cfg, tgt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// A guard rule must escalate to Safe when the watched counter's
// per-tick delta crosses High, hold while it keeps moving, and relax
// back to Fast only after the delta falls to Low (hysteresis) — each
// applied switch logged and counted, with the transition cost charged
// through Exec.
func TestGuardHysteresis(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := stats.NewRegistry()
	var blocked int64
	reg.GaugeFunc("blocked", func() float64 { return float64(blocked) })
	dom := testDomain(t, core.FNS)
	var charged int
	c, err := New(eng, reg, "", Config{Every: 100, Rules: []Rule{guardRule()}},
		[]Target{{Name: "nic0", Domain: dom, Exec: func(sim.Duration) { charged++ }}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()

	eng.Run(150) // tick at 100: delta 0, stay fast
	if dom.Mode() != core.FNS {
		t.Fatalf("mode after quiet tick = %v, want fns", dom.Mode())
	}
	blocked += 3
	eng.Run(250) // tick at 200: delta 3 >= 1 -> strict
	if dom.Mode() != core.Strict {
		t.Fatalf("mode after burst tick = %v, want strict", dom.Mode())
	}
	blocked += 2
	eng.Run(350) // tick at 300: delta 2, still bursting -> hold strict
	if dom.Mode() != core.Strict {
		t.Fatalf("mode mid-burst = %v, want strict held", dom.Mode())
	}
	eng.Run(450) // tick at 400: delta 0 <= 0 -> release to fns
	if dom.Mode() != core.FNS {
		t.Fatalf("mode after burst = %v, want fns restored", dom.Mode())
	}

	dec := c.Decisions()
	if len(dec) != 2 {
		t.Fatalf("decision log = %v, want escalate+release", dec)
	}
	if dec[0].From != core.FNS || dec[0].To != core.Strict || dec[0].Value != 3 {
		t.Fatalf("escalation decision = %+v", dec[0])
	}
	if dec[1].From != core.Strict || dec[1].To != core.FNS {
		t.Fatalf("release decision = %+v", dec[1])
	}
	if dec[1].At <= dec[0].At {
		t.Fatalf("decisions out of order: %v then %v", dec[0].At, dec[1].At)
	}
	if charged != 2 {
		t.Fatalf("Exec charged %d times, want 2", charged)
	}
	if v, _ := reg.Value("control.switches"); v != 2 {
		t.Fatalf("control.switches = %v, want 2", v)
	}
	if v, _ := reg.Value("control.ticks"); v != 4 {
		t.Fatalf("control.ticks = %v, want 4", v)
	}
}

// Cooldown pins the domain's mode for the configured virtual time after
// a switch, so a metric oscillating across both thresholds every tick
// cannot thrash the transition protocol.
func TestCooldownSuppressesThrash(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := stats.NewRegistry()
	var blocked int64
	reg.GaugeFunc("blocked", func() float64 { return float64(blocked) })
	dom := testDomain(t, core.FNS)
	r := guardRule()
	r.Cooldown = 500
	c, err := New(eng, reg, "", Config{Every: 100, Rules: []Rule{r}},
		[]Target{{Name: "nic0", Domain: dom}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	// Delta alternates 2,0,2,0,... across ticks: without cooldown that
	// is a switch per tick; with 500ns cooldown only the first lands
	// before 600.
	next := int64(2)
	for at := sim.Time(100); at <= 500; at += 100 {
		eng.Run(at + 50)
		blocked += next
		next = 2 - next
	}
	if got := len(c.Decisions()); got != 1 {
		t.Fatalf("decisions under cooldown = %d, want 1:\n%v", got, c.Decisions())
	}
	eng.Run(1200) // cooldown expired; quiet deltas release to fns
	if dom.Mode() != core.FNS {
		t.Fatalf("mode after cooldown = %v, want fns", dom.Mode())
	}
}

// A pressure rule watches a level, not a delta: escalate to Fast while
// the level holds at High, release to Safe at Low.
func TestPressureRule(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := stats.NewRegistry()
	var util float64
	reg.GaugeFunc("util", func() float64 { return util })
	dom := testDomain(t, core.Strict)
	c, err := New(eng, reg, "", Config{Every: 100, Rules: []Rule{{
		Kind: Pressure, Metric: "util", High: 0.8, Low: 0.2,
		Safe: core.Strict, Fast: core.FNS,
	}}}, []Target{{Name: "nic0", Domain: dom}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	util = 0.9
	eng.Run(150)
	if dom.Mode() != core.FNS {
		t.Fatalf("mode under pressure = %v, want fns", dom.Mode())
	}
	util = 0.5 // inside the hysteresis band: hold
	eng.Run(250)
	if dom.Mode() != core.FNS {
		t.Fatalf("mode in hysteresis band = %v, want fns held", dom.Mode())
	}
	util = 0.1
	eng.Run(350)
	if dom.Mode() != core.Strict {
		t.Fatalf("mode after pressure = %v, want strict restored", dom.Mode())
	}
}

// A rule names an instrument of its controller's own host: under the
// prefix "host1." it reads host1.<metric>, never the bare name nor
// another host's, and a name the host does not register leaves the
// rule inert.
func TestMetricLookupIsHostLocal(t *testing.T) {
	for _, tc := range []struct {
		metric    string
		decisions int
	}{
		{"util", 1},    // host1.util is hot: pressure fires
		{"bare", 0},    // only the unprefixed name is registered
		{"other", 0},   // only host2.other is registered
		{"missing", 0}, // registered nowhere
	} {
		eng := sim.NewEngine(1)
		reg := stats.NewRegistry()
		hot := func() float64 { return 1 }
		reg.GaugeFunc("host1.util", hot)
		reg.GaugeFunc("bare", hot)
		reg.GaugeFunc("host2.other", hot)
		dom := testDomain(t, core.Strict)
		c, err := New(eng, reg, "host1.", Config{Every: 100, Rules: []Rule{{
			Kind: Pressure, Metric: tc.metric, High: 0.8, Low: 0.2,
			Safe: core.Strict, Fast: core.FNS,
		}}}, []Target{{Name: "nic0", Domain: dom}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		c.Start()
		eng.Run(250)
		if n := len(c.Decisions()); n != tc.decisions {
			t.Errorf("metric %q: %d decisions, want %d", tc.metric, n, tc.decisions)
		}
		if v, _ := reg.Value("host1.control.ticks"); v != 2 {
			t.Errorf("metric %q: host1.control.ticks = %v, want 2", tc.metric, v)
		}
	}
}

// A rule scoped to one domain must leave the others alone.
func TestDomainScope(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := stats.NewRegistry()
	reg.GaugeFunc("blocked", func() float64 { return 10 })
	d0, d1 := testDomain(t, core.FNS), testDomain(t, core.FNS)
	r := guardRule()
	r.Domain = "nic1"
	c, err := New(eng, reg, "", Config{Every: 100, Rules: []Rule{r}},
		[]Target{{Name: "nic0", Domain: d0}, {Name: "nic1", Domain: d1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	eng.Run(150)
	if d0.Mode() != core.FNS || d1.Mode() != core.Strict {
		t.Fatalf("modes = %v/%v, want fns/strict (rule scoped to nic1)", d0.Mode(), d1.Mode())
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := Parse("every=500us; guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=2ms,domain=nic0; pressure,metric=mem.util,high=0.8,low=0.3,safe=strict,fast=fns")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Every != 500*sim.Microsecond {
		t.Fatalf("Every = %v, want 500us", cfg.Every)
	}
	if len(cfg.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(cfg.Rules))
	}
	g := cfg.Rules[0]
	if g.Kind != Guard || g.Metric != "audit.blocked" || g.High != 1 || g.Low != 0 ||
		g.Safe != core.Strict || g.Fast != core.FNS || g.Cooldown != 2*sim.Millisecond || g.Domain != "nic0" {
		t.Fatalf("guard rule = %+v", g)
	}
	if p := cfg.Rules[1]; p.Kind != Pressure || p.Metric != "mem.util" || p.High != 0.8 {
		t.Fatalf("pressure rule = %+v", p)
	}
	if cfg, err := Parse(""); cfg != nil || err != nil {
		t.Fatalf("empty spec = %v,%v, want nil,nil (disabled)", cfg, err)
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"vibes,metric=m", `unknown rule kind "vibes"`},
		{"guard,metric=m,color=red", `unknown key "color"`},
		{"guard,metric=m,high=lots", `high="lots": want a number`},
		{"guard,metric=m,safe=warp9", `unknown mode`},
		{"guard,metric=m,cooldown=fast", `cooldown="fast"`},
		{"guard,high=1", "metric must not be empty"},
		{"guard,metric", "want key=value"},
		{"every=1ms", "no rules"},
		{"every=backwards;guard,metric=m", `every="backwards"`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", tc.spec, err, tc.want)
		}
	}
	// Mode rejections must name the full valid-mode vocabulary, like
	// core.ParseMode's.
	_, err := Parse("guard,metric=m,fast=warp9")
	if err == nil || !strings.Contains(err.Error(), "fns+huge") {
		t.Errorf("mode rejection %v does not list valid modes", err)
	}
}

// TestDecisionString pins the decision-log line format the adaptive
// experiments and fssim print.
func TestDecisionString(t *testing.T) {
	d := Decision{
		At: sim.Time(1594 * sim.Microsecond), Domain: "nic0", Rule: Guard,
		Metric: "audit.blocked", Value: 17, From: core.FNS, To: core.Strict,
	}
	if got, want := d.String(), "1.594ms nic0 guard audit.blocked=17 fns->strict"; got != want {
		t.Fatalf("Decision.String() = %q, want %q", got, want)
	}
}
