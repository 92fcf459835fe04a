package host

import (
	"context"
	"fmt"
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
	// Strip the telemetry-only sections, then demand exact equality.
	rSampled.Timeline = nil
	rPlain.Timeline = nil
	rSampled.Latencies = Latencies{}
	rPlain.Latencies = Latencies{}
	if !reflect.DeepEqual(rPlain, rSampled) {
		t.Fatalf("sampling changed simulation results:\nplain:   %+v\nsampled: %+v", rPlain, rSampled)
	}
}

func TestTimelineRecorded(t *testing.T) {
	h, err := New(sampledConfig())
	if err != nil {
		t.Fatal(err)
	}
	warmup, measure := 2*sim.Millisecond, 4*sim.Millisecond
	r := h.Run(warmup, measure)

	wantOrder := []string{"rx_gbps", "tx_gbps", "iotlb_miss_per_pg", "ptcache_miss_per_pg",
		"walk_reads", "inv_reqs", "cwnd_mean", "core_util_max", "invq_depth", "mem_util"}
	if len(r.Timeline) != len(wantOrder) {
		t.Fatalf("timeline has %d series, want %d", len(r.Timeline), len(wantOrder))
	}
	for i, s := range r.Timeline {
		if s.Name != wantOrder[i] {
			t.Fatalf("series %d = %q, want %q", i, s.Name, wantOrder[i])
		}
		if len(s.Times) != 20 { // 4ms window / 200us interval
			t.Fatalf("series %q has %d points, want 20", s.Name, len(s.Times))
		}
		for _, at := range s.Times {
			if at <= warmup || at > warmup+measure {
				t.Fatalf("series %q sample at %v outside measure window", s.Name, at)
			}
		}
	}
	var rx float64
	for _, v := range r.Timeline[0].Values {
		rx += v
	}
	if rx/float64(len(r.Timeline[0].Values)) <= 0 {
		t.Fatal("rx_gbps series is all zeros under active flows")
	}
	// The full-run view includes warmup samples too.
	full := h.Telemetry().sampler.Series()
	if len(full[0].Times) <= len(r.Timeline[0].Times) {
		t.Fatal("the sampler's series should include warmup samples")
	}
}

// Sampler output must be invariant under runner parallelism: N sampled
// simulations fanned across workers produce byte-identical series to a
// sequential run (this test doubles as the -race exercise for the
// engine-confined registry).
func TestSamplerParallelInvariance(t *testing.T) {
	render := func(r Results) string {
		out := ""
		for _, s := range r.Timeline {
			out += s.Name
			for i := range s.Times {
				out += fmt.Sprintf(" %d:%.9g", int64(s.Times[i]), s.Values[i])
			}
			out += "\n"
		}
		return out
	}
	runOne := func() Results {
		h, err := New(sampledConfig())
		if err != nil {
			t.Fatal(err)
		}
		return h.Run(sim.Millisecond, 3*sim.Millisecond)
	}
	want := render(runOne())
	if want == "" {
		t.Fatal("reference run recorded no timeline")
	}

	jobs := make([]runner.Job[string], 6)
	for i := range jobs {
		jobs[i] = func(context.Context) (string, error) { return render(runOne()), nil }
	}
	got, err := runner.Collect(context.Background(), runner.Config{Workers: 3}, jobs)
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
	if reg.LookupHistogram("nic0.pcie.rx.latency_ns") == nil {
		t.Error("registry missing Rx DMA latency histogram")
	}
	if h.Telemetry().Histogram("rpc.latency_ns") == nil {
		t.Error("registry missing rpc.latency_ns")
	}
	// The registry shares the workload's histogram object: identical
	// quantiles by construction.
	if h.Telemetry().Histogram("rpc.latency_ns") != r.Latency {
		t.Error("rpc.latency_ns is not the workload's histogram object")
	}
	if r.Latencies.RxDMA == nil || r.Latencies.RxDMA.Count() == 0 {
		t.Error("Rx DMA latency histogram empty over the measure window")
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
	var memUtil []float64
	for _, s := range r.Timeline {
		if s.Name == "mem_util" {
			memUtil = s.Values
		}
	}
	n := len(memUtil)
	if n < 4 {
		t.Fatalf("mem_util series too short: %d", n)
	}
	// The hog lands mid-window, so contention (and the knock-on workload
	// collapse) shows up only in the second half: its peak utilisation
	// must clearly exceed anything seen before onset.
	peak := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	before, after := peak(memUtil[:n/2]), peak(memUtil[n/2:])
	if after <= before+0.05 {
		t.Fatalf("mem_util did not rise after hog onset: peak before=%.3f after=%.3f", before, after)
	}
}

// TestTimelineMissRatesCountServingPayload: the sampler's per-page miss
// rates share Results.PagesRxed's normaliser, serving payload included,
// so on a serving-only host every interval that walked the page table
// reports a nonzero miss rate.
func TestTimelineMissRatesCountServingPayload(t *testing.T) {
	cfg := servingConfig(core.Strict, 0.3, 1, 1)
	cfg.Telemetry.SampleEvery = 500 * sim.Microsecond
	r := runServing(t, cfg, sim.Millisecond, 3*sim.Millisecond)
	series := map[string][]float64{}
	for _, s := range r.Timeline {
		series[s.Name] = s.Values
	}
	walks := series["walk_reads"]
	if len(walks) == 0 {
		t.Fatal("no walk_reads series sampled")
	}
	walked := 0
	for i, w := range walks {
		if w == 0 {
			continue
		}
		walked++
		for _, name := range []string{"iotlb_miss_per_pg", "ptcache_miss_per_pg"} {
			if v := series[name][i]; v <= 0 {
				t.Errorf("interval %d: %v walk reads but %s = %v", i, w, name, v)
			}
		}
	}
	if walked == 0 {
		t.Fatal("no interval walked the page table")
	}
}
