package host

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
)

func sampledConfig() Config {
	return Config{
		Mode:    core.FNS,
		Cores:   2,
		RxFlows: 2,
		Telemetry: TelemetryConfig{
			SampleEvery: 200 * sim.Microsecond,
		},
	}
}

// The telemetry layer must be provably observation-only: the same
// configuration with and without sampling produces identical simulation
// results in every non-telemetry field.
func TestSamplingIsSideEffectFree(t *testing.T) {
	cfg := sampledConfig()
	plain := cfg
	plain.Telemetry = TelemetryConfig{}

	hPlain, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	rPlain := hPlain.Run(2*sim.Millisecond, 4*sim.Millisecond)

	hSampled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rSampled := hSampled.Run(2*sim.Millisecond, 4*sim.Millisecond)

	if len(rSampled.Timeline) == 0 {
		t.Fatal("sampled run recorded no timeline")
	}
	// Strip the telemetry-only section, then demand exact equality.
	rSampled.Timeline = nil
	rPlain.Timeline = nil
	if !reflect.DeepEqual(rPlain, rSampled) {
		t.Fatalf("sampling changed simulation results:\nplain:   %+v\nsampled: %+v", rPlain, rSampled)
	}
}

// TestTimelineRecorded: the window's samples tile it at SampleEvery, and
// each counter series sums to the window's own total, since both are
// diffs of the same snapshots.
func TestTimelineRecorded(t *testing.T) {
	warmup, measure := 2*sim.Millisecond, 4*sim.Millisecond
	for _, mode := range []core.Mode{core.Strict, core.FNS} {
		cfg := sampledConfig()
		cfg.Mode = mode
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := h.Run(warmup, measure)
		if len(r.Timeline) != 20 { // 4ms window / 200us interval
			t.Fatalf("%v: window holds %d samples, want 20", mode, len(r.Timeline))
		}
		var rx float64
		var walks, invs int64
		for i, s := range r.Timeline {
			if want := sim.Time(warmup) + sim.Time(i+1)*sim.Time(cfg.Telemetry.SampleEvery); s.At != want {
				t.Fatalf("%v: sample %d at %v, want %v", mode, i, s.At, want)
			}
			rx += s.RxGbps
			walks += s.WalkReads
			invs += s.InvReqs
		}
		if rx <= 0 {
			t.Fatalf("%v: rx_gbps is all zeros under active flows", mode)
		}
		if invs != r.InvRequests {
			t.Errorf("%v: samples' InvReqs sum to %d, window's InvRequests = %d", mode, invs, r.InvRequests)
		}
		if want := int64(math.Round(r.ReadsPerPage * r.PagesRxed)); walks != want {
			t.Errorf("%v: samples' WalkReads sum to %d, window's ReadsPerPage x PagesRxed = %d", mode, walks, want)
		}
		if len(h.samples) <= len(r.Timeline) {
			t.Fatalf("%v: the timeline should include warmup samples", mode)
		}
	}
}

// Timeline output must be invariant under runner parallelism: N sampled
// simulations fanned across workers produce identical samples to a
// sequential run (this test doubles as the -race exercise for hosts,
// each with its own registry, run side by side on runner workers).
func TestSamplerParallelInvariance(t *testing.T) {
	render := func(r Results) string { return fmt.Sprintf("%+v", r.Timeline) }
	runOne := func() Results {
		h, err := New(sampledConfig())
		if err != nil {
			t.Fatal(err)
		}
		return h.Run(sim.Millisecond, 3*sim.Millisecond)
	}
	ref := runOne()
	if len(ref.Timeline) == 0 {
		t.Fatal("reference run recorded no timeline")
	}
	want := render(ref)

	jobs := make([]runner.Job[string], 6)
	for i := range jobs {
		jobs[i] = func() (string, error) { return render(runOne()), nil }
	}
	got, err := runner.Collect(runner.Config{Workers: 3}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != want {
			t.Fatalf("parallel run %d diverged from sequential reference:\n%s\nvs\n%s", i, g, want)
		}
	}
}

func TestRegistryCoversLayers(t *testing.T) {
	h, err := New(Config{
		Mode:  core.Strict,
		Cores: 2,
		Topology: Topology{
			Storage: []StorageSpec{{ReadGBps: 4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalServes, Streams: 1, Depth: 1, ReqBytes: 2048, RespBytes: 64, Cores: 1, CoreBase: 5})
	r := h.Run(sim.Millisecond, 2*sim.Millisecond)

	reg := h.Telemetry().Registry()
	for _, name := range []string{
		"engine.fired", "iommu.walks", "mem.util", "walker.reads",
		"nic0.pages_mapped", "nic0.iommu.iotlb_misses", "nic0.iova.cache_allocs",
		"nic0.ptable.live_pages", "nic0.flow0.cwnd", "nic0.rx_dmas",
		"storage0.bytes", "storage0.iommu.mem_reads",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	if rx := reg.LookupHistogram("nic0.pcie.rx.latency_ns"); rx == nil || rx.Count() == 0 {
		t.Error("Rx DMA latency histogram missing or empty over the measure window")
	}
	if reg.LookupHistogram("rpc.latency_ns") == nil {
		t.Error("registry missing rpc.latency_ns")
	}
	// The registry shares the workload's histogram object: identical
	// quantiles by construction.
	if reg.LookupHistogram("rpc.latency_ns") != r.Latency {
		t.Error("rpc.latency_ns is not the workload's histogram object")
	}
	if v, _ := reg.Value("nic0.iommu.iotlb_misses"); v <= 0 {
		t.Error("per-domain attribution gauge did not advance")
	}
}

func TestMemHogStartDelaysOnset(t *testing.T) {
	cfg := sampledConfig()
	cfg.MemHogGBps = 20
	cfg.MemHogStart = 4 * sim.Millisecond // mid-measure
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := h.Run(2*sim.Millisecond, 4*sim.Millisecond)
	n := len(r.Timeline)
	if n < 4 {
		t.Fatalf("timeline too short: %d samples", n)
	}
	// The hog lands mid-window, so contention (and the knock-on workload
	// collapse) shows up only in the second half: its peak utilisation
	// must clearly exceed anything seen before onset.
	peak := func(v []Sample) float64 {
		m := 0.0
		for _, s := range v {
			m = max(m, s.MemUtil)
		}
		return m
	}
	before, after := peak(r.Timeline[:n/2]), peak(r.Timeline[n/2:])
	if after <= before+0.05 {
		t.Fatalf("mem_util did not rise after hog onset: peak before=%.3f after=%.3f", before, after)
	}
}

// TestTimelineMissRatesCountServingPayload: the timeline's per-page miss
// rates share Results.PagesRxed's normaliser, serving payload included,
// so on a serving-only host every interval that walked the page table
// reports a nonzero miss rate.
func TestTimelineMissRatesCountServingPayload(t *testing.T) {
	cfg := servingConfig(core.Strict, 0.3, 1, 1)
	cfg.Telemetry.SampleEvery = 500 * sim.Microsecond
	r := runServing(t, cfg, sim.Millisecond, 3*sim.Millisecond)
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline sampled")
	}
	walked := 0
	for i, s := range r.Timeline {
		if s.WalkReads == 0 {
			continue
		}
		walked++
		if s.IOTLBMissPerPage <= 0 || s.PTcacheMissPerPage <= 0 {
			t.Errorf("interval %d: %d walk reads but miss rates %+v", i, s.WalkReads, s)
		}
	}
	if walked == 0 {
		t.Fatal("no interval walked the page table")
	}
}
