package workload

import (
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
)

func quick(s Spec) Spec {
	s.Warmup = 2 * sim.Millisecond
	s.Measure = 6 * sim.Millisecond
	return s
}

func TestIperfSpecRuns(t *testing.T) {
	r, err := quick(Iperf(core.FNS, 5, 0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RxGbps < 50 {
		t.Fatalf("iperf throughput = %.1f", r.RxGbps)
	}
	if r.Mode != core.FNS {
		t.Fatalf("mode = %v", r.Mode)
	}
}

func TestIperfTraceRecords(t *testing.T) {
	r, err := quick(IperfTrace(core.Strict, 5, 0, 10000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil || len(r.Trace.Dists) == 0 {
		t.Fatal("no locality trace")
	}
}

func TestBidirectionalSpecRuns(t *testing.T) {
	r, err := quick(Bidirectional(core.Off, 2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RxGbps < 50 || r.TxGbps < 50 {
		t.Fatalf("bidirectional = %.1f/%.1f", r.RxGbps, r.TxGbps)
	}
}

func TestRPCSpecRuns(t *testing.T) {
	s := RPC(core.FNS, 4096)
	s.Warmup = 2 * sim.Millisecond
	s.Measure = 10 * sim.Millisecond
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no RPCs completed")
	}
	if r.Latency == nil || r.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
}

func TestRedisSpecRuns(t *testing.T) {
	r, err := quick(Redis(core.FNS, 64<<10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no SETs completed")
	}
	if r.MsgGbps < 20 {
		t.Fatalf("redis throughput = %.1f", r.MsgGbps)
	}
}

func TestNginxSpecRuns(t *testing.T) {
	r, err := quick(Nginx(core.FNS, 512<<10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no pages fetched")
	}
}

func TestSPDKSpecRuns(t *testing.T) {
	r, err := quick(SPDK(core.FNS, 128<<10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no blocks read")
	}
}

func TestServingSpecRuns(t *testing.T) {
	s := Serving(core.FNS, 24, 0.3, 4)
	s.Host.Audit = true
	s.Warmup = 1 * sim.Millisecond
	s.Measure = 2 * sim.Millisecond
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.ServeCompleted == 0 || r.ServeDeaths == 0 {
		t.Fatalf("vacuous serving window (served=%d deaths=%d)", r.ServeCompleted, r.ServeDeaths)
	}
	if r.Safety == nil || r.Safety.Violations() != 0 {
		t.Fatalf("serving safety audit: %+v", r.Safety)
	}
	if r.Latency == nil || r.Latency.Count() == 0 {
		t.Fatal("no serving latency samples")
	}
}

func TestServingSpecRejectsBadChurn(t *testing.T) {
	for _, s := range []Spec{
		Serving(core.FNS, 0, 0.3, 1),
		Serving(core.FNS, 8, 0, 1),
		Serving(core.FNS, 8, 1.5, 1),
		Serving(core.FNS, 8, 0.3, 0),
	} {
		if _, err := s.Run(); err == nil {
			t.Errorf("Serving spec %+v accepted", s.Host.Serve)
		}
	}
}

func TestRedisStrictSlowerThanFNS(t *testing.T) {
	// Figure 11a's headline: enabling default protection costs throughput;
	// F&S recovers it.
	strict, err := quick(Redis(core.Strict, 64<<10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	fns, err := quick(Redis(core.FNS, 64<<10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Short windows make throughput noisy (closed-loop completions bunch);
	// assert it is in the same league and that the translation cost — the
	// quantity Figure 11a's gap comes from — is strictly lower.
	if fns.MsgGbps < strict.MsgGbps*0.9 {
		t.Fatalf("FNS redis (%.1f) far below strict (%.1f)", fns.MsgGbps, strict.MsgGbps)
	}
	if fns.ReadsPerPage >= strict.ReadsPerPage {
		t.Fatalf("FNS reads (%.2f) not below strict (%.2f)", fns.ReadsPerPage, strict.ReadsPerPage)
	}
}

func TestDefaultsAppliedOnZeroDurations(t *testing.T) {
	s := Iperf(core.Off, 2, 0)
	if s.Warmup != 0 || s.Measure != 0 {
		t.Fatal("constructor should leave durations zero")
	}
	r, err := s.Run() // defaults kick in
	if err != nil {
		t.Fatal(err)
	}
	if r.Measure != 20*sim.Millisecond {
		t.Fatalf("default measure window = %v", r.Measure)
	}
}

// A message config InstallMessages rejects fails the spec's Run with
// that error instead of running.
func TestSpecRunReturnsMessageError(t *testing.T) {
	s := RPC(core.Strict, 4096)
	s.Msg.CoreBase = -3
	if _, err := s.Run(); err == nil || err.Error() != "host: MsgConfig.CoreBase must be >= 0, got -3" {
		t.Fatalf("Run err = %v, want the CoreBase range error", err)
	}
}
