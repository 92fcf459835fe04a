package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestPolicyPredicatesMatchPreRefactorTable locks the policy seam to the
// predicate tables the Mode methods hardcoded before the refactor: for
// every registered mode, the policy's (Translated, StrictSafety,
// Contiguous, PreservesPTCaches) tuple — and the Mode methods that now
// delegate to it — must reproduce the old switch statements exactly.
// The capability rows state the family's contract: eager cap is
// strict-equivalent, lazy revocation gives that up the way deferred
// gives up strict's.
func TestPolicyPredicatesMatchPreRefactorTable(t *testing.T) {
	table := []struct {
		mode                                  Mode
		translated, strict, contig, preserves bool
	}{
		{Off, false, false, false, false},
		{Strict, true, true, false, false},
		{Deferred, true, false, false, false},
		{StrictPreserve, true, true, false, true},
		{StrictContig, true, true, true, false},
		{FNS, true, true, true, true},
		{Persistent, true, false, false, false},
		{FNSHuge, true, false, true, true},
		{DeferNoShootdown, true, false, true, false},
		{Cap, true, true, true, true},
		{CapLazyRevoke, true, false, true, true},
	}
	if len(table) != len(policies) {
		t.Fatalf("predicate table covers %d modes, registry has %d", len(table), len(policies))
	}
	for _, row := range table {
		pol, ok := PolicyFor(row.mode)
		if !ok {
			t.Fatalf("%v: no registered policy", row.mode)
		}
		if pol != policies[row.mode] {
			t.Fatalf("%v: PolicyFor returns another mode's row", row.mode)
		}
		got := [4]bool{pol.Translated(), pol.StrictSafety(), pol.Contiguous(), pol.PreservesPTCaches()}
		viaMode := [4]bool{row.mode.Translated(), row.mode.StrictSafety(), row.mode.Contiguous(), row.mode.PreservesPTCaches()}
		want := [4]bool{row.translated, row.strict, row.contig, row.preserves}
		if got != want {
			t.Fatalf("%v: policy predicates %v, want %v", row.mode, got, want)
		}
		if viaMode != want {
			t.Fatalf("%v: Mode-method predicates %v, want %v", row.mode, viaMode, want)
		}
	}
}

// TestEveryModeConstructs is the registry regression: every presentation
// mode, both strawmen, and the capability family must construct a Domain
// through the policy lookup; an unregistered mode must fail at
// construction time with an error naming the valid modes.
func TestEveryModeConstructs(t *testing.T) {
	all := append(Modes(), DeferNoShootdown, Cap, CapLazyRevoke)
	for _, m := range all {
		if _, err := NewDomain(Config{Mode: m, NumCPUs: 1, DescriptorPages: 4}); err != nil {
			t.Fatalf("%v: NewDomain: %v", m, err)
		}
	}
	_, err := NewDomain(Config{Mode: Mode(97), NumCPUs: 1, DescriptorPages: 4})
	if err == nil {
		t.Fatal("unregistered mode constructed a domain")
	}
	for _, name := range []string{"strict", "fns", "cap", "cap-lazyrevoke"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("construction error %q does not name valid mode %q", err, name)
		}
	}
}

// TestParseModeRejectionNamesCapabilityModes: both new modes must parse,
// and a rejected spec's error must list them among the valid names so a
// user who typos "cap" discovers the family exists.
func TestParseModeRejectionNamesCapabilityModes(t *testing.T) {
	for s, want := range map[string]Mode{"cap": Cap, "cap-lazyrevoke": CapLazyRevoke} {
		m, err := ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", s, err)
		}
		if m != want || m.String() != s {
			t.Fatalf("ParseMode(%q) = %v (String %q)", s, m, m.String())
		}
	}
	_, err := ParseMode("capability")
	if err == nil {
		t.Fatal("ParseMode accepted junk")
	}
	for _, name := range []string{"cap", "cap-lazyrevoke"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("rejection %q does not name %q", err, name)
		}
	}
}

// TestUnregisteredModePredicatesPanic: the Mode predicates have no
// fallback for a mode without a policy; asking one panics and names the
// mode.
func TestUnregisteredModePredicatesPanic(t *testing.T) {
	for name, pred := range map[string]func(Mode) bool{
		"Translated":        Mode.Translated,
		"StrictSafety":      Mode.StrictSafety,
		"Contiguous":        Mode.Contiguous,
		"PreservesPTCaches": Mode.PreservesPTCaches,
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "mode(97)") {
					t.Fatalf("%s(mode(97)) recovered %v, want a panic naming the mode", name, r)
				}
			}()
			pred(Mode(97))
		}()
	}
}

// TestValidModeNamesCoversRegistry: the shared name table every mode
// rejection prints must cover exactly the registered policies, lead
// with the presentation modes in Modes() order, and round-trip through
// ParseMode.
func TestValidModeNamesCoversRegistry(t *testing.T) {
	names := ValidModeNames()
	if len(names) != len(policies) {
		t.Fatalf("ValidModeNames lists %d names, registry has %d policies", len(names), len(policies))
	}
	for i, m := range Modes() {
		if names[i] != m.String() {
			t.Fatalf("name %d = %q, want presentation mode %q", i, names[i], m.String())
		}
	}
	for _, s := range names {
		m, err := ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", s, err)
		}
		if _, ok := PolicyFor(m); !ok {
			t.Fatalf("%q parses to %v with no policy", s, m)
		}
	}
}
