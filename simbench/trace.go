package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fastsafe/internal/sim"
)

// span is one timed interval of a traced run: the whole run, its set-up,
// Start, each simulated slice, each layer replay and each replay batch.
// A span's self time is its duration minus the parts its child spans
// cover.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a root span
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // host seconds since the trace began
	End    float64            `json:"end_s"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

func (t *tracer) end(id int, counts map[string]float64) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	s.Counts = counts
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// workCounts are the simulated work counts the traced run reads from
// the registry, each the sum of every instrument whose host-local name
// the matcher accepts. Reading by name keeps the benchmark working
// across layer refactors that keep their probe names.
var workCounts = []struct {
	key   string
	match func(local string) bool
}{
	{"dmas", suffix(".pcie.rx.dmas", ".pcie.tx.dmas")},
	{"pcie_bytes", suffix(".pcie.rx.bytes", ".pcie.tx.bytes")},
	{"pcie_reads", suffix(".pcie.rx.mem_reads", ".pcie.tx.mem_reads")},
	{"translations", exact("iommu.translations")},
	{"iotlb_hits", exact("iommu.iotlb_hits")},
	{"iotlb_misses", exact("iommu.iotlb_misses")},
	{"walks", exact("iommu.walks")},
	{"walk_reads", exact("iommu.mem_reads")},
	{"inv_requests", exact("iommu.inv_requests")},
	{"ats_lookups", suffix(".ats.lookups")},
	{"ats_hits", suffix(".ats.hits")},
	{"ats_inv_messages", suffix(".ats.inv_messages")},
	{"pages_mapped", suffix(".pages_mapped")},
	{"pages_unmapped", suffix(".pages_unmapped")},
	{"rx_descs_unmapped", suffix(".rx_descs_unmapped")},
	{"tx_pkts_mapped", suffix(".tx_pkts_mapped")},
	{"iova_tree_allocs", suffix(".iova.tree_allocs")},
	{"iova_cache_allocs", suffix(".iova.cache_allocs")},
	{"iova_tree_frees", suffix(".iova.tree_frees")},
	{"iova_cache_frees", suffix(".iova.cache_frees")},
	{"live_mappings", suffix(".ptable.mappings")},
	{"nic_arrived", suffix(".arrived")},
	{"nic_dropped", suffix(".dropped")},
	{"nic_marked", func(n string) bool { return strings.Count(n, ".") == 1 && strings.HasSuffix(n, ".marked") }},
	{"segments", func(n string) bool { return strings.Contains(n, "flow") && strings.HasSuffix(n, ".sent") }},
	{"retransmits", suffix(".retransmits")},
	{"fabric_packets", func(n string) bool { return strings.HasPrefix(n, "fabric.") && strings.HasSuffix(n, ".down.packets") }},
	{"fabric_marked", func(n string) bool { return strings.HasPrefix(n, "fabric.") && strings.HasSuffix(n, ".down.marked") }},
	{"serve_done", exact("serve.completed")},
	{"serve_expired", exact("serve.expired")},
	{"audit_checked", exact("audit.checked")},
	{"stale_served", exact("audit.violations")},
}

func exact(name string) func(string) bool { return func(n string) bool { return n == name } }

func suffix(ends ...string) func(string) bool {
	return func(n string) bool {
		for _, e := range ends {
			if strings.HasSuffix(n, e) {
				return true
			}
		}
		return false
	}
}

// counter reads the work counts, plus event-loop and runtime state, at
// one slice boundary.
type counter struct {
	s     *system
	names [][]string // per workCounts entry
}

func newCounter(s *system) *counter {
	c := &counter{s: s, names: make([][]string, len(workCounts))}
	for _, n := range s.reg.Names() {
		if s.reg.LookupHistogram(n) != nil {
			continue
		}
		for i, wc := range workCounts {
			if wc.match(localName(n)) {
				c.names[i] = append(c.names[i], n)
			}
		}
	}
	return c
}

func (c *counter) read() (map[string]float64, point) {
	m := make(map[string]float64, len(workCounts)+4)
	for i, wc := range workCounts {
		m[wc.key] = c.s.sum(c.names[i])
	}
	m["events"] = float64(c.s.fired())
	m["rounds"] = float64(c.s.rounds())
	var pending int
	engs := c.s.engines()
	for _, e := range engs {
		pending += e.Pending()
	}
	m["pending"] = float64(pending) / float64(len(engs))
	return m, readPoint()
}

// window accumulates the slices of the measured window: counts sums
// every per-slice delta (and the per-slice pending depths).
type window struct {
	simMs, wall float64
	slices      int
	counts      map[string]float64
	heapPeak    float64 // bytes
}

func (w *window) per(key string) float64 { return ratio(w.counts[key], w.counts["dmas"]) }

// tracedRun re-runs the workload in fixed simulated slices through the
// same entry points the timed run uses, with a span around set-up, Start
// and every slice. Each slice span carries that slice's deltas of the
// registry work counts and of the runtime's allocation, GC and CPU
// counters.
func tracedRun(w *workload, seed int64, tr *tracer, root int) (*window, *system, error) {
	id := tr.begin(root, "setup")
	s, err := w.build(seed)
	if err != nil {
		return nil, nil, err
	}
	tr.end(id, map[string]float64{"instruments": float64(len(s.reg.Names()))})
	id = tr.begin(root, "start")
	s.start()
	tr.end(id, nil)

	c := newCounter(s)
	win := &window{counts: map[string]float64{}}
	prev, p0 := c.read()
	h0 := s.histCount()
	for t := sim.Time(0); t < w.warmup+w.measure; t += w.slice {
		id := tr.begin(root, fmt.Sprintf("slice %s", t+w.slice))
		s.advance(t, t+w.slice)
		cur, p1 := c.read()
		h1 := s.histCount()
		observes := float64(h1 - h0)
		if s.cl != nil {
			// Cluster.Run resets the histograms at the start of the
			// slice, so they hold exactly this slice's observations.
			observes = float64(h1)
		}
		d := map[string]float64{}
		for k, v := range cur {
			if k != "pending" && k != "live_mappings" {
				d[k] = v - prev[k]
			}
		}
		d["pending"] = cur["pending"]
		d["observes"] = observes
		d["allocs"] = float64(p1.mallocs - p0.mallocs)
		d["alloc_bytes"] = float64(p1.bytes - p0.bytes)
		d["gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
		d["user_cpu_s"] = p1.userCPU - p0.userCPU
		d["gc_cpu_s"] = p1.gcCPU - p0.gcCPU
		d["idle_cpu_s"] = p1.idleCPU - p0.idleCPU
		d["total_cpu_s"] = p1.totalCPU - p0.totalCPU
		d["heap_mb"] = float64(p1.heapObjects) / (1 << 20)
		tr.end(id, d)
		if t >= w.warmup {
			win.simMs += float64(w.slice) / 1e6
			win.wall += p1.wall.Sub(p0.wall).Seconds()
			win.slices++
			for k, v := range d {
				win.counts[k] += v
			}
			win.counts["live_mappings"] = cur["live_mappings"]
			if hb := float64(p1.heapObjects); hb > win.heapPeak {
				win.heapPeak = hb
			}
		}
		prev, p0, h0 = cur, p1, h1
	}
	return win, s, nil
}
