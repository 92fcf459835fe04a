package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"fastsafe/internal/sim"
)

func mustStart(t *testing.T, w *workload, seed int64) *system {
	t.Helper()
	s, err := w.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	return s
}

// TestSlicingKeepsDigest: a run advanced in one step and the same run
// advanced in uneven slices end with identical digests, on every
// workload — what lets the traced run check itself against the timed
// runs.
func TestSlicingKeepsDigest(t *testing.T) {
	const end = 3 * sim.Millisecond
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain := mustStart(t, w, 1)
			plain.advance(0, end)
			sliced := mustStart(t, w, 1)
			prev := sim.Time(0)
			for _, at := range []sim.Time{1, 370 * sim.Microsecond, sim.Millisecond, 1700*sim.Microsecond + 3, end} {
				sliced.advance(prev, at)
				prev = at
			}
			if a, b := digest(plain.reg), digest(sliced.reg); a != b {
				t.Errorf("digest of the plain run %s, of the sliced run %s", a, b)
			}
		})
	}
}

// TestDMACountCoversEveryLink: the DMA count reads the Rx and Tx link of
// every device on every host, and agrees with the devices' own count of
// submitted DMAs up to those still queued.
func TestDMACountCoversEveryLink(t *testing.T) {
	for _, w := range workloads {
		s := mustStart(t, w, 1)
		s.advance(0, sim.Millisecond)
		var devices int
		var ops int64
		for _, h := range s.hosts {
			for _, d := range h.Devices() {
				devices++
				ops += d.Stats().Ops
			}
		}
		if got, want := len(s.dmaNames), 2*devices; got != want {
			t.Errorf("%s: DMA count reads %d links, want %d (Rx and Tx of %d devices)", w.name, got, want, devices)
		}
		var outstanding []string
		for _, n := range s.reg.Names() {
			if strings.HasSuffix(n, ".pcie.rx.outstanding") || strings.HasSuffix(n, ".pcie.tx.outstanding") {
				outstanding = append(outstanding, n)
			}
		}
		queued := int64(s.sum(outstanding))
		if d := s.dmas(); d <= 0 || d > ops || d < ops-queued {
			t.Errorf("%s: %d DMAs counted, devices submitted %d with %d outstanding", w.name, d, ops, queued)
		}
	}
}

// TestSeedsGiveDifferentDigests: the seed reaches the simulation. The
// F&S RDMA-write incast draws no random numbers at all — no IOVA is
// freed through the shuffled free pool, no fault plan or serving fleet
// runs — so its digest is the same for every seed, and the test pins
// that too: a change that makes it seed-dependent shows here.
func TestSeedsGiveDifferentDigests(t *testing.T) {
	seedFree := map[string]bool{"fns-rdma-sharded": true}
	for _, w := range workloads {
		a, b := mustStart(t, w, 1), mustStart(t, w, 2)
		a.advance(0, 3*sim.Millisecond)
		b.advance(0, 3*sim.Millisecond)
		if same := digest(a.reg) == digest(b.reg); same != seedFree[w.name] {
			t.Errorf("%s: seeds 1 and 2 give digests %s and %s", w.name, digest(a.reg), digest(b.reg))
		}
	}
}

// TestCheckRuns: a run fails on an error, a stale-served DMA, or a
// digest other than the one the seed's runs (or the caller) agree on.
func TestCheckRuns(t *testing.T) {
	runs := []runStats{{Digest: "a"}, {Digest: "b"}, {Digest: "a"}, {Digest: "a", Stale: 1}, {Err: "boom"}}
	ref, failed := checkRuns(runs, "")
	if ref != "a" || len(failed) != 3 {
		t.Errorf("checkRuns = %q, %q; want reference a and 3 failures", ref, failed)
	}
	if _, failed := checkRuns(runs[:1], "b"); len(failed) != 1 {
		t.Errorf("a run whose digest differs from the timed runs' passed: %q", failed)
	}
}

// TestTracedRunAndReplays runs a short traced run and every layer
// replay, the two-shard ones included, and derives every per-layer
// metric. Run it under -race.
func TestTracedRunAndReplays(t *testing.T) {
	for _, w := range workloads {
		w2 := *w
		w2.warmup, w2.measure = w.slice, 2*w.slice
		tr := newTracer()
		win, s, err := tracedRun(&w2, 1, tr, tr.begin(0, "run"))
		if err != nil {
			t.Fatal(err)
		}
		if win.counts["dmas"] <= 0 || win.slices != 2 {
			t.Fatalf("%s: traced window counted %g DMAs over %d slices", w.name, win.counts["dmas"], win.slices)
		}
		m := newMix(&w2, win)
		rp := replayLayers(&w2, 1, m, tr, 64)
		vals, _ := layerValues(&w2, win, m, rp, len(s.reg.Names()))
		vals["trace.overhead_frac"] = 0
		for _, d := range perLayer {
			if _, ok := vals[d.Name]; !ok {
				t.Errorf("%s: no value for %s", w.name, d.Name)
			}
		}
		if len(vals) != len(perLayer) {
			t.Errorf("%s: %d values for %d per-layer metrics", w.name, len(vals), len(perLayer))
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json lists exactly the workloads and
// metrics this program reports, with the same reasons, units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why,omitempty"`
		Unit   string  `json:"unit,omitempty"`
		Better string  `json:"better,omitempty"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, pl []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		pl = append(pl, entry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"workloads", bj.Workloads, ws}, {"end_to_end", bj.EndToEnd, e2e}, {"per_layer", bj.PerLayer, pl}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s:\n got %+v\nwant %+v", c.what, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(bj.Paths, []string{"simbench"}) || len(bj.Command) < 2 || bj.Command[1] != "simbench/run.sh" {
		t.Errorf("BENCHMARK.json command %q, paths %q", bj.Command, bj.Paths)
	}
	for _, d := range perLayer {
		for _, mv := range d.Moves {
			if !containsMetric(endToEnd, mv) {
				t.Errorf("%s moves unknown end-to-end metric %q", d.Name, mv)
			}
		}
		if _, err := findWorkload(d.Workload); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func containsMetric(ds []metricDef, name string) bool {
	for _, d := range ds {
		if d.Name == name {
			return true
		}
	}
	return false
}
