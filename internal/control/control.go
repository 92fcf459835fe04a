// Package control is the simulator's adaptive protection-mode control
// plane: a deterministic rule engine running on the virtual clock that
// watches its host's instruments and switches per-domain protection
// modes through the core.Domain.SetMode transition protocol.
//
// Determinism contract: the controller consumes no randomness, reads
// its own host's instruments only at its own ticks, and schedules only
// its next tick — so a run with a nil Config is byte-identical to a
// build without the package, and a run with rules replays decision-
// for-decision from the same seed regardless of runner pools or
// GOMAXPROCS (the property tests lock both down).
package control

import (
	"fmt"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// DefaultEvery is the rule-evaluation period when Config.Every is zero:
// coarse enough that control-plane work is noise next to the datapath,
// fine enough to catch a fault burst within a phase.
const DefaultEvery = 500 * sim.Microsecond

// Rule kinds. A guard watches a cumulative safety counter and compares
// its per-tick delta; a pressure rule watches an instantaneous level.
const (
	// Guard escalates to the rule's Safe mode while the watched
	// counter's per-tick delta is at or above High, and relaxes back to
	// Fast once the domain sits in Safe and the delta has fallen to Low
	// or below (hysteresis: High fires, Low releases).
	Guard = "guard"
	// Pressure escalates to Fast while the watched level is at or
	// above High (e.g. memory-bus utilisation — misses got expensive,
	// shed protection CPU work), and relaxes to Safe once it falls to
	// Low or below.
	Pressure = "pressure"
)

// Rule is one deterministic mode-selection policy. Safe and Fast name
// the two modes the rule arbitrates between; both directions of the
// switch must be legal per core.CanSwitch (validated at New).
type Rule struct {
	Kind   string  // Guard or Pressure
	Metric string  // an instrument of the controller's own host, named without its host prefix
	High   float64 // escalation threshold (fires at >= High)
	Low    float64 // release threshold (releases at <= Low); hysteresis gap
	Safe   core.Mode
	Fast   core.Mode
	// Cooldown is the minimum virtual time between switches on one
	// domain, so a metric hovering at a threshold cannot thrash the
	// transition protocol.
	Cooldown sim.Duration
	// Domain restricts the rule to the named target ("" = every target).
	Domain string
}

// Config enables the controller: at least one rule, evaluated every
// Every of virtual time (DefaultEvery when zero). The nil *Config is
// the disabled control plane.
type Config struct {
	Rules []Rule
	Every sim.Duration
}

// Target is one controllable protection domain. Exec charges the
// transition's CPU cost to the core that owns the domain's datapath, so
// a mode switch contends with the traffic it is reacting to.
type Target struct {
	Name   string
	Domain *core.Domain
	Exec   func(cost sim.Duration)
}

// Decision is one applied mode switch, recorded for the run's decision
// log (host.Results.Control).
type Decision struct {
	At     sim.Time
	Domain string
	Rule   string // rule kind
	Metric string
	Value  float64 // the delta (guard) or level (pressure) that fired
	From   core.Mode
	To     core.Mode
}

func (d Decision) String() string {
	return fmt.Sprintf("%v %s %s %s=%g %v->%v",
		d.At, d.Domain, d.Rule, d.Metric, d.Value, d.From, d.To)
}

// Controller evaluates the configured rules against the registry on
// virtual-clock ticks and applies mode switches through SetMode.
type Controller struct {
	eng     *sim.Engine
	reg     *stats.Registry
	prefix  string
	cfg     Config
	targets []Target

	last     []float64  // per rule×target: previous cumulative value (guards)
	cooldown []sim.Time // per target: no switches before this time
	log      []Decision

	// ticks, switches and rejected count evaluations, applied switches
	// and refused ones, published as control.* gauges.
	ticks, switches, rejected int64
}

// New validates cfg against the targets and builds a controller wired
// to the engine and registry. The prefix is the host's instrument-name
// prefix ("host3." in a cluster, empty for a standalone host): a rule
// reads prefix+Metric, so it watches only its own host's instruments,
// and the control.* counters register under it.
func New(eng *sim.Engine, reg *stats.Registry, prefix string, cfg Config, targets []Target) (*Controller, error) {
	names := make(map[string]bool, len(targets))
	for _, t := range targets {
		names[t.Name] = true
	}
	if err := cfg.check(names); err != nil {
		return nil, err
	}
	if cfg.Every == 0 {
		cfg.Every = DefaultEvery
	}
	c := &Controller{
		eng:      eng,
		reg:      reg,
		prefix:   prefix,
		cfg:      cfg,
		targets:  targets,
		last:     make([]float64, len(cfg.Rules)*len(targets)),
		cooldown: make([]sim.Time, len(targets)),
	}
	reg.GaugeFunc(prefix+"control.ticks", func() float64 { return float64(c.ticks) })
	reg.GaugeFunc(prefix+"control.switches", func() float64 { return float64(c.switches) })
	reg.GaugeFunc(prefix+"control.rejected", func() float64 { return float64(c.rejected) })
	return c, nil
}

// check validates the configuration's rules. names holds the
// controllable target names a rule's Domain may reference; a nil map
// skips the domain-existence check (the parser runs before targets
// exist, New runs with them).
func (cfg Config) check(names map[string]bool) error {
	if len(cfg.Rules) == 0 {
		return fmt.Errorf("control: config has no rules (nil Config disables the control plane)")
	}
	if cfg.Every < 0 {
		return fmt.Errorf("control: evaluation period must be >= 0, got %s", cfg.Every)
	}
	for i, r := range cfg.Rules {
		if r.Kind != Guard && r.Kind != Pressure {
			return fmt.Errorf("control: rule %d: unknown kind %q (valid: %s, %s)", i, r.Kind, Guard, Pressure)
		}
		if r.Metric == "" {
			return fmt.Errorf("control: rule %d: metric must not be empty", i)
		}
		if r.High < r.Low {
			return fmt.Errorf("control: rule %d: high threshold %g below low %g (high fires, low releases)", i, r.High, r.Low)
		}
		if r.Safe == r.Fast {
			return fmt.Errorf("control: rule %d: safe and fast modes are both %v (nothing to arbitrate)", i, r.Safe)
		}
		if err := core.CanSwitch(r.Fast, r.Safe); err != nil {
			return fmt.Errorf("control: rule %d: %w", i, err)
		}
		if err := core.CanSwitch(r.Safe, r.Fast); err != nil {
			return fmt.Errorf("control: rule %d: %w", i, err)
		}
		if r.Cooldown < 0 {
			return fmt.Errorf("control: rule %d: cooldown must be >= 0, got %s", i, r.Cooldown)
		}
		if r.Domain != "" && names != nil && !names[r.Domain] {
			return fmt.Errorf("control: rule %d: domain %q matches no controllable device", i, r.Domain)
		}
	}
	return nil
}

// Start schedules the first evaluation tick; each tick reschedules the
// next, so the controller runs for the whole simulation.
func (c *Controller) Start() {
	c.eng.After(c.cfg.Every, c.tick)
}

func (c *Controller) tick() {
	c.ticks++
	now := c.eng.Now()
	for ri, r := range c.cfg.Rules {
		v, ok := c.reg.Value(c.prefix + r.Metric)
		if !ok {
			// No such gauge on this host (audit.* without -audit, or a
			// fabric.* name, which is no host's). Inert, not fatal.
			continue
		}
		for ti := range c.targets {
			t := &c.targets[ti]
			if r.Domain != "" && r.Domain != t.Name {
				continue
			}
			obs := v
			if r.Kind == Guard {
				slot := ri*len(c.targets) + ti
				obs = v - c.last[slot]
				c.last[slot] = v
			}
			cur := t.Domain.Mode()
			want, fired := cur, false
			switch r.Kind {
			case Guard:
				if obs >= r.High && cur != r.Safe {
					want, fired = r.Safe, true
				} else if obs <= r.Low && cur == r.Safe {
					want, fired = r.Fast, true
				}
			case Pressure:
				if obs >= r.High && cur != r.Fast {
					want, fired = r.Fast, true
				} else if obs <= r.Low && cur == r.Fast {
					want, fired = r.Safe, true
				}
			}
			if !fired || want == cur || now < c.cooldown[ti] {
				continue
			}
			cost, err := t.Domain.SetMode(want)
			if err != nil {
				// Another rule left the domain in a mode this pair cannot
				// reach (validated pairs never fail from their own modes).
				c.rejected++
				continue
			}
			if t.Exec != nil {
				t.Exec(cost)
			}
			c.cooldown[ti] = now + r.Cooldown
			c.switches++
			c.log = append(c.log, Decision{
				At: now, Domain: t.Name, Rule: r.Kind, Metric: r.Metric,
				Value: obs, From: cur, To: want,
			})
		}
	}
	c.eng.After(c.cfg.Every, c.tick)
}

// Decisions returns the applied-switch log in virtual-time order.
func (c *Controller) Decisions() []Decision { return c.log }
