// Package modespec holds no code, only the spec-string contract fssim
// relies on. fssim parses a spec with the parser of the package that
// owns its type (core.ParseMode for host and device modes,
// transport.ParseOp, control.Parse), leaves the serving fleet's ranges
// to cohort.Config.Validate and every other value's range to host.New,
// and prints the error as is. These tests pin what those parsers accept
// and the wording they print; fssim's TestRejectsBadConfigs checks the
// flags that reach them.
package modespec

import (
	"fmt"
	"strings"
	"testing"

	"fastsafe/internal/cohort"
	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/host"
	"fastsafe/internal/transport"
)

func TestHostParsesEveryValidMode(t *testing.T) {
	for _, name := range core.ValidModeNames() {
		m, err := core.ParseMode(name)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", name, err)
		}
		if m.String() != name {
			t.Fatalf("ParseMode(%q) = %v", name, m)
		}
	}
}

func TestHostRejectionMessage(t *testing.T) {
	_, err := core.ParseMode("fast")
	if err == nil {
		t.Fatal("ParseMode(\"fast\") accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		`unknown protection mode "fast"`,
		"valid:",
		"strict",
		"fns+huge",
		"defer-noshootdown", // the strawman parses even though sweeps skip it
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

// TestHostRejectsEmpty: fssim has no default for an empty -mode; the
// rejection names the empty input.
func TestHostRejectsEmpty(t *testing.T) {
	_, err := core.ParseMode("")
	if err == nil {
		t.Fatal("empty mode accepted")
	}
	if !strings.Contains(err.Error(), `unknown protection mode ""`) {
		t.Fatalf("error %q does not name the empty input", err)
	}
}

// TestDeviceInheritsOnEmpty: fssim maps an empty -devmode to a nil
// StorageSpec/NICSpec.Mode, which host.New resolves to the host's mode;
// an explicit mode holds.
func TestDeviceInheritsOnEmpty(t *testing.T) {
	strict := core.Strict
	h, err := host.New(host.Config{Mode: core.FNS, Topology: host.Topology{
		Storage: []host.StorageSpec{{ReadGBps: 8}, {ReadGBps: 8, Mode: &strict}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]core.Mode{"storage0": core.FNS, "storage1": core.Strict}
	for _, d := range h.Devices() {
		m, ok := want[d.Name()]
		if !ok {
			continue
		}
		if d.Domain().Mode() != m {
			t.Fatalf("%s runs %v, want %v", d.Name(), d.Domain().Mode(), m)
		}
		delete(want, d.Name())
	}
	if len(want) != 0 {
		t.Fatalf("devices %v not installed", want)
	}
}

func TestRDMAParsesEveryOp(t *testing.T) {
	op, err := transport.ParseOp("")
	if err != nil || op != transport.SendRecv {
		t.Fatalf("ParseOp(\"\") = %v, %v; want sendrecv", op, err)
	}
	for _, want := range []transport.Op{transport.SendRecv, transport.Read, transport.Write} {
		op, err := transport.ParseOp(want.String())
		if err != nil || op != want {
			t.Fatalf("ParseOp(%q) = %v, %v; want %v", want.String(), op, err, want)
		}
	}
}

func TestRDMARejectionMessage(t *testing.T) {
	_, err := transport.ParseOp("fetch")
	if err == nil {
		t.Fatal("ParseOp(\"fetch\") accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		`unknown rdma op "fetch"`,
		"(valid: sendrecv, read, write)", // two-sided first
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

// TestATSEntriesParses: 0 leaves the device TLB disabled; a positive
// count sizes it.
func TestATSEntriesParses(t *testing.T) {
	for _, n := range []int{0, 64, 4096} {
		if _, err := host.New(host.Config{ATSEntries: n}); err != nil {
			t.Fatalf("ATSEntries %d: %v", n, err)
		}
	}
}

// TestATSEntriesRejectionMessages: a non-integer never reaches host.New;
// fssim's flag package rejects it (TestRejectsBadConfigs).
func TestATSEntriesRejectionMessages(t *testing.T) {
	_, err := host.New(host.Config{ATSEntries: -8})
	if err == nil {
		t.Fatal("ATSEntries -8 accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "ATSEntries must be >= 0, got -8") ||
		!strings.Contains(msg, "0 disables the device TLB") {
		t.Fatalf("negative error %q lacks the bound or the knob explanation", msg)
	}
}

// serve is a valid fleet for the churn, conns and cohort-size cases to
// vary one knob of.
var serve = cohort.Config{Conns: 64, Cohort: 1, Churn: 0.3}

func TestChurnParses(t *testing.T) {
	for _, f := range []float64{0.05, 0.3, 1} {
		c := serve
		c.Churn = f
		if err := c.Validate(); err != nil {
			t.Fatalf("churn %g: %v", f, err)
		}
	}
}

// TestChurnRejectionMessages: a non-number never reaches Validate;
// fssim's flag package rejects it (TestRejectsBadConfigs).
func TestChurnRejectionMessages(t *testing.T) {
	for _, bad := range []float64{0, -0.2, 1.5} {
		c := serve
		c.Churn = bad
		err := c.Validate()
		if err == nil {
			t.Fatalf("churn %g accepted", bad)
		}
		want := fmt.Sprintf("churn rate must be in (0, 1], got %g (the per-request connection death probability)", bad)
		if msg := err.Error(); !strings.Contains(msg, want) {
			t.Fatalf("out-of-range error %q lacks %q", msg, want)
		}
	}
}

func TestConnsParses(t *testing.T) {
	for _, n := range []int{1, 48, 1024} {
		c := serve
		c.Conns = n
		if err := c.Validate(); err != nil {
			t.Fatalf("conns %d: %v", n, err)
		}
	}
}

// TestConnsRejectionMessages: a non-integer never reaches Validate;
// fssim's flag package rejects it (TestRejectsBadConfigs).
func TestConnsRejectionMessages(t *testing.T) {
	for _, bad := range []int{0, -4} {
		c := serve
		c.Conns = bad
		err := c.Validate()
		if err == nil {
			t.Fatalf("conns %d accepted", bad)
		}
		if want := fmt.Sprintf("conns must be >= 1, got %d", bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("bound error %q lacks %q", err, want)
		}
	}
}

func TestCohortSizeParses(t *testing.T) {
	for _, n := range []int{1, 4, 64} {
		c := serve
		c.Cohort = n
		if err := c.Validate(); err != nil {
			t.Fatalf("cohort size %d: %v", n, err)
		}
	}
}

// TestCohortSizeRejectionMessages: a non-integer never reaches Validate;
// fssim's flag package rejects it (TestRejectsBadConfigs).
func TestCohortSizeRejectionMessages(t *testing.T) {
	for _, bad := range []int{0, -3} {
		c := serve
		c.Cohort = bad
		err := c.Validate()
		if err == nil {
			t.Fatalf("cohort size %d accepted", bad)
		}
		want := fmt.Sprintf("cohort size must be >= 1, got %d (1 simulates every connection exactly)", bad)
		if msg := err.Error(); !strings.Contains(msg, want) {
			t.Fatalf("bound error %q lacks %q", msg, want)
		}
	}
}

func TestValidCoversModesAndStrawmen(t *testing.T) {
	valid := core.ValidModeNames()
	index := map[string]int{}
	for i, name := range valid {
		if _, dup := index[name]; dup {
			t.Fatalf("duplicate mode name %q", name)
		}
		index[name] = i
	}
	for i, m := range core.Modes() {
		at, ok := index[m.String()]
		if !ok {
			t.Fatalf("presentation mode %v missing from ValidModeNames()", m)
		}
		if at != i {
			t.Fatalf("presentation mode %v at %d, want core.Modes() order", m, at)
		}
	}
	if _, ok := index[core.DeferNoShootdown.String()]; !ok {
		t.Fatal("strawman mode missing from ValidModeNames()")
	}
	for _, m := range []core.Mode{core.Cap, core.CapLazyRevoke} {
		if _, ok := index[m.String()]; !ok {
			t.Fatalf("capability mode %v missing from ValidModeNames()", m)
		}
	}
}

// TestCapabilityModesParseInBothRoles: the capability family must parse
// and construct as a host mode and as a per-device override, even though
// Modes() sweeps exclude it.
func TestCapabilityModesParseInBothRoles(t *testing.T) {
	for name, want := range map[string]core.Mode{
		"cap": core.Cap, "cap-lazyrevoke": core.CapLazyRevoke,
	} {
		m, err := core.ParseMode(name)
		if err != nil || m != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", name, m, err, want)
		}
		h, err := host.New(host.Config{Mode: m, Topology: host.Topology{
			Storage: []host.StorageSpec{{ReadGBps: 8, Mode: &m}},
		}})
		if err != nil {
			t.Fatalf("%s as host and device mode: %v", name, err)
		}
		for _, d := range h.Devices() {
			if d.Domain().Mode() != want {
				t.Fatalf("%s runs %v, want %v", d.Name(), d.Domain().Mode(), want)
			}
		}
	}
}

// TestRejectionNamesCapabilityModes: a mode rejection must list the
// capability modes among the valid names, so the family is discoverable
// from a typo. fssim's TestRejectsBadConfigs checks that -devmode prints
// the same list.
func TestRejectionNamesCapabilityModes(t *testing.T) {
	for _, junk := range []string{"capability", "cap-lazy"} {
		_, err := core.ParseMode(junk)
		if err == nil {
			t.Fatalf("ParseMode(%q) accepted", junk)
		}
		for _, want := range []string{"cap", "cap-lazyrevoke"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("ParseMode(%q) error %q does not name %q", junk, err, want)
			}
		}
	}
}

func TestControlEmptyDisables(t *testing.T) {
	cfg, err := control.Parse("")
	if err != nil || cfg != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", cfg, err)
	}
}

func TestControlParsesSpec(t *testing.T) {
	cfg, err := control.Parse("every=250us;guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(cfg.Rules))
	}
	r := cfg.Rules[0]
	if r.Metric != "audit.blocked" || r.Safe != core.Strict || r.Fast != core.FNS {
		t.Fatalf("rule = %+v", r)
	}
}

func TestControlRejectionMessages(t *testing.T) {
	cases := []struct {
		name, spec string
		want       []string // substrings the error must carry
	}{
		{"unknown kind", "governor,metric=mem.util",
			[]string{`unknown rule kind "governor"`, "guard, pressure"}},
		{"missing metric", "guard,high=1,low=0,safe=strict,fast=fns",
			[]string{"metric must not be empty"}},
		{"unknown key", "guard,metric=x,ceiling=2",
			[]string{`unknown key "ceiling"`, "metric"}},
		{"bad threshold", "guard,metric=x,high=lots",
			[]string{`high="lots"`}},
		{"bad mode", "guard,metric=x,high=1,low=0,safe=turbo,fast=fns",
			[]string{`safe="turbo"`, "fns+huge"}},
		{"bad cooldown", "guard,metric=x,high=1,low=0,safe=strict,fast=fns,cooldown=soon",
			[]string{`cooldown="soon"`, "duration"}},
		{"bad every", "every=never",
			[]string{`every="never"`}},
		{"inverted thresholds", "guard,metric=x,high=1,low=5,safe=strict,fast=fns",
			[]string{"high threshold 1 below low 5"}},
		{"unswitchable mode", "guard,metric=x,high=1,low=0,safe=strict,fast=persistent",
			[]string{"cannot switch persistent -> strict"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := control.Parse(c.spec)
			if err == nil {
				t.Fatalf("Parse(%q) accepted", c.spec)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "control") {
				t.Fatalf("error %q not namespaced", msg)
			}
			for _, want := range c.want {
				if !strings.Contains(msg, want) {
					t.Fatalf("error %q missing %q", msg, want)
				}
			}
		})
	}
}
