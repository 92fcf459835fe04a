package fault

import (
	"testing"

	"fastsafe/internal/sim"
)

func TestParseBareIntensityIsCampaign(t *testing.T) {
	got, err := Parse("0.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := Campaign(0.5); got != want {
		t.Fatalf("Parse(\"0.5\") = %+v, want Campaign(0.5) = %+v", got, want)
	}
	if p, err := Parse(""); err != nil || p.Enabled() {
		t.Fatalf("Parse(\"\") = %+v, %v; want zero plan", p, err)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := Parse("invdrop=0.1, straydma=0.05,linkflap=500us,memspike=1ms,memspikegbps=32")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		InvDrop:       0.1,
		StrayDMA:      0.05,
		LinkFlapEvery: 500 * sim.Microsecond,
		MemSpikeEvery: sim.Millisecond,
		MemSpikeGBps:  32,
	}
	if p != want {
		t.Fatalf("Parse = %+v, want %+v", p, want)
	}
	if !p.Enabled() {
		t.Fatal("parsed plan not Enabled")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"-1",              // negative intensity
		"invdrop=2",       // probability out of range
		"invdrop",         // not key=value
		"linkflap=xyz",    // not a duration
		"linkflap=-1ms",   // negative duration
		"memspikegbps=0",  // rate must be positive
		"nosuchknob=0.5",  // unknown key
		"straydma=banana", // not a float
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestDefaultsOnlyFillMagnitudes(t *testing.T) {
	d := Plan{InvDrop: 0.1}.withDefaults()
	if d.InvDelayBy == 0 || d.InvTimeout == 0 || d.WritebackDelayBy == 0 ||
		d.LinkFlapFor == 0 || d.MemSpikeFor == 0 || d.MemSpikeGBps == 0 {
		t.Fatalf("withDefaults left magnitude knobs zero: %+v", d)
	}
	if d.InvDrop != 0.1 || d.StrayDMA != 0 || d.LinkFlapEvery != 0 {
		t.Fatalf("withDefaults changed rate/period knobs: %+v", d)
	}
}

func TestZeroPlanBuildsNoInjector(t *testing.T) {
	if Campaign(0).Enabled() {
		t.Fatal("Campaign(0) is enabled")
	}
	eng := sim.NewEngine(1)
	if inj := NewInjector(eng, Plan{}, 1); inj != nil {
		t.Fatal("NewInjector built an injector for the zero plan")
	}
	// Every decision surface on a nil injector must be a safe no-op.
	var inj *Injector
	inj.Start()
	inj.SetAuditor(nil)
	if inj.DropInv() || inj.DelayInv() != 0 || inj.DelayWriteback() != 0 || inj.FailAlloc() {
		t.Fatal("nil injector injected something")
	}
	if c := inj.Counters(); c != (Counters{}) {
		t.Fatalf("nil injector counters = %+v", c)
	}
	if dev := inj.Device(nil); dev != nil {
		t.Fatal("nil injector built a device")
	}
	var dev *Device
	dev.Observe(0)
	if dev.MaybeMisbehave() != 0 || dev.DupDescRead() || dev.DelayWriteback() != 0 {
		t.Fatal("nil device injected something")
	}
}

func TestSafetyReportArithmetic(t *testing.T) {
	a := SafetyReport{Checked: 10, Blocked: 2, StaleUnmapped: 1, StaleRemapped: 1, Retries: 3}
	b := SafetyReport{Checked: 4, Blocked: 1, Retries: 2}
	d := a.Sub(b)
	if d.Checked != 6 || d.Blocked != 1 || d.Retries != 1 {
		t.Fatalf("Sub = %+v", d)
	}
	if a.Violations() != 2 || d.Violations() != 2 {
		t.Fatalf("Violations = %d / %d, want 2 / 2", a.Violations(), d.Violations())
	}
}

// TestParseSpecAllKeys exercises every key the spec grammar accepts in
// one plan — the adaptive control-plane experiments build windowed
// campaigns from exactly these fields, so the whole surface stays
// parseable.
func TestParseSpecAllKeys(t *testing.T) {
	p, err := Parse("campaign=1,start=4ms,for=2ms,invdelay=0.2,invdelayby=3us," +
		"invtimeout=10us,writeback=0.1,writebackby=2us,wilddma=0.03,dupdesc=0.04," +
		"allocfail=0.01,rcacheflush=700us,linkflapfor=20us,memspikefor=80us")
	if err != nil {
		t.Fatal(err)
	}
	want := Campaign(1)
	want.Start, want.For = 4*sim.Millisecond, 2*sim.Millisecond
	want.InvDelay, want.InvDelayBy = 0.2, 3*sim.Microsecond
	want.InvTimeout = 10 * sim.Microsecond
	want.WritebackDelay, want.WritebackDelayBy = 0.1, 2*sim.Microsecond
	want.WildDMA, want.DupDescRead, want.AllocFail = 0.03, 0.04, 0.01
	want.RcacheFlushEvery = 700 * sim.Microsecond
	want.LinkFlapFor, want.MemSpikeFor = 20*sim.Microsecond, 80*sim.Microsecond
	if p != want {
		t.Fatalf("Parse = %+v, want %+v", p, want)
	}
	// The windowed-campaign ordering contract: start=/for= survive a
	// later campaign= field resetting the rates.
	p2, err := Parse("start=1ms,for=2ms,campaign=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Start != sim.Millisecond || p2.For != 2*sim.Millisecond || p2.StrayDMA == 0 {
		t.Fatalf("campaign= clobbered the fault window: %+v", p2)
	}
	if _, err := Parse("campaign=-1"); err == nil {
		t.Error("Parse(campaign=-1): want error, got nil")
	}
	if _, err := Parse("start=bogus"); err == nil {
		t.Error("Parse(start=bogus): want error, got nil")
	}
}

// TestSafetyReportString pins the audit line format the fault figures
// print alongside the per-phase goodput columns.
func TestSafetyReportString(t *testing.T) {
	r := SafetyReport{Checked: 10, Blocked: 2, StaleUnmapped: 1, Retries: 3}
	want := "checked=10 blocked=2 stale_unmapped=1 stale_remapped=0 stale_ats=0 stale_cap=0 retries=3 violations=1"
	if got := r.String(); got != want {
		t.Fatalf("SafetyReport.String() = %q, want %q", got, want)
	}
}
