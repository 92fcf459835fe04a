package control

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
)

// Parse turns a command-line control spec into a Config. The spec is
// ';'-separated: each segment is either a rule — its kind followed by
// comma-separated key=value fields — or the standalone evaluation
// period "every=<duration>", e.g.
//
//	"every=500us;guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=2ms"
//
// Rule keys: metric (an instrument of the rule's own host, named as a
// standalone host's registry names it, e.g. audit.blocked), high/low
// (thresholds, high fires and low releases), safe/fast (the two modes
// arbitrated), cooldown (minimum virtual time between switches on one
// domain), and domain (restrict to one device; default all). An empty
// spec returns a nil Config — the disabled control plane.
func Parse(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := &Config{}
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if val, ok := strings.CutPrefix(seg, "every="); ok {
			d, err := parseDur(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("control spec every=%q: want a positive duration like 500us", val)
			}
			cfg.Every = d
			continue
		}
		r, err := parseRule(seg)
		if err != nil {
			return nil, err
		}
		cfg.Rules = append(cfg.Rules, r)
	}
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("control spec %q has no rules (want at least one %q or %q segment)", spec, Guard, Pressure)
	}
	// Run the rule-level semantic checks (threshold ordering, switchable
	// mode pairs) here too, so front ends reject a bad spec at parse
	// time rather than at host construction. Domain names can only be
	// checked once targets exist, at New.
	if err := cfg.check(nil); err != nil {
		return nil, err
	}
	return cfg, nil
}

func parseRule(seg string) (Rule, error) {
	fields := strings.Split(seg, ",")
	kind := strings.TrimSpace(fields[0])
	if kind != Guard && kind != Pressure {
		return Rule{}, fmt.Errorf("control spec: unknown rule kind %q (valid: %s, %s; or the standalone every=<duration>)", kind, Guard, Pressure)
	}
	r := Rule{Kind: kind}
	for _, field := range fields[1:] {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Rule{}, fmt.Errorf("control spec field %q: want key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "metric":
			r.Metric = val
		case "high":
			r.High, err = parseNum(key, val)
		case "low":
			r.Low, err = parseNum(key, val)
		case "safe":
			r.Safe, err = parseMode(key, val)
		case "fast":
			r.Fast, err = parseMode(key, val)
		case "cooldown":
			r.Cooldown, err = parseDur(val)
			if err != nil {
				err = fmt.Errorf("control spec cooldown=%q: want a duration like 2ms", val)
			}
		case "domain":
			r.Domain = val
		default:
			err = fmt.Errorf("control spec: unknown key %q (valid: metric, high, low, safe, fast, cooldown, domain)", key)
		}
		if err != nil {
			return Rule{}, err
		}
	}
	if r.Metric == "" {
		return Rule{}, fmt.Errorf("control spec rule %q: metric must not be empty", seg)
	}
	return r, nil
}

func parseNum(key, val string) (float64, error) {
	x, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("control spec %s=%q: want a number", key, val)
	}
	return x, nil
}

func parseMode(key, val string) (core.Mode, error) {
	m, err := core.ParseMode(val)
	if err != nil {
		return 0, fmt.Errorf("control spec %s=%q: unknown mode (valid: %s)", key, val, strings.Join(core.ValidModeNames(), ", "))
	}
	return m, nil
}

func parseDur(val string) (sim.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("control: bad duration %q", val)
	}
	return sim.Duration(d.Nanoseconds()), nil
}
