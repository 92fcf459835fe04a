// Package experiments regenerates every table and figure in the paper's
// evaluation (§2.2 and §4) as printable tables, one row of the figures
// table per figure. The per-experiment index in DESIGN.md maps each figure
// to the modules and workloads used here.
//
// Every figure is a grid of independent deterministic simulations, so
// each figure builds its grid of cells first and fans them out through
// run (internal/runner, Options.Parallel workers), then formats the rows
// in grid order — parallelism never changes a table's contents.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/model"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
	"fastsafe/internal/workload"
)

// Options control experiment durations and fan-out. Quick() is used by
// the benchmark harness and tests; Default() by cmd/fsbench.
type Options struct {
	Warmup  sim.Duration
	Measure sim.Duration
	// RPCMeasure lengthens latency experiments so tail percentiles have
	// enough samples.
	RPCMeasure sim.Duration
	// Parallel bounds how many simulation cells of one figure run
	// concurrently; <= 0 means GOMAXPROCS.
	Parallel int
}

// Default returns full-length windows.
func Default() Options {
	return Options{
		Warmup:     10 * sim.Millisecond,
		Measure:    40 * sim.Millisecond,
		RPCMeasure: 200 * sim.Millisecond,
	}
}

// Quick returns short windows for benchmarks and smoke tests.
func Quick() Options {
	return Options{
		Warmup:     3 * sim.Millisecond,
		Measure:    10 * sim.Millisecond,
		RPCMeasure: 30 * sim.Millisecond,
	}
}

// Table is one figure's regenerated data.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries non-deterministic side information (wall-clock
	// timings, environment remarks). It is published in JSON() for CI
	// artifacts but excluded from String() and CSV(), so golden files —
	// which lock the rendered table — stay byte-stable across machines.
	Notes []string
}

// JSON renders the table as an indented JSON object — the machine-
// readable form CI publishes as benchmark artifacts.
func (t Table) JSON() string {
	out, err := json.MarshalIndent(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}, "", "  ")
	if err != nil { // unreachable: plain strings always marshal
		return fmt.Sprintf("{\"id\":%q,\"error\":%q}", t.ID, err)
	}
	return string(out)
}

// CSV renders the table as comma-separated values (header row first).
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// run fans the cells of figure id across o.Parallel workers and returns
// fn's results in cell order. A failing or panicking cell aborts the
// figure with a panic that names it.
func run[C, R any](id string, o Options, cells []C, fn func(C) (R, error)) []R {
	jobs := make([]runner.Job[R], len(cells))
	for i, c := range cells {
		jobs[i] = func(context.Context) (R, error) { return fn(c) }
	}
	rs, err := runner.Collect(context.Background(), runner.Config{Workers: o.Parallel}, jobs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", id, err))
	}
	return rs
}

// cell is one (mode, parameter) point of a figure's grid.
type cell[P any] struct {
	mode core.Mode
	p    P
}

// grid is the mode × parameter cross product with modes outermost, the
// row order of every grid figure.
func grid[P any](modes []core.Mode, ps ...P) []cell[P] {
	cells := make([]cell[P], 0, len(modes)*len(ps))
	for _, m := range modes {
		for _, p := range ps {
			cells = append(cells, cell[P]{m, p})
		}
	}
	return cells
}

// sweep runs spec's workload for every cell of grid(modes, ps...) at o's
// windows and appends row's rendering of each result to t, in grid order.
func sweep[P any](o Options, t Table, modes []core.Mode, ps []P,
	spec func(core.Mode, P) workload.Spec, row func(P, host.Results) []string) Table {
	cells := grid(modes, ps...)
	rs := run(t.ID, o, cells, func(c cell[P]) (host.Results, error) {
		s := spec(c.mode, c.p)
		s.Warmup, s.Measure = o.Warmup, o.Measure
		return s.Run()
	})
	for i, r := range rs {
		t.Rows = append(t.Rows, row(cells[i].p, r))
	}
	return t
}

// cluster runs one audited cluster cell at o's windows.
func cluster(o Options, cc host.ClusterConfig) (host.ClusterResults, error) {
	cc.Host.Audit = true
	cl, err := host.NewCluster(cc)
	if err != nil {
		return host.ClusterResults{}, err
	}
	return cl.Run(o.Warmup, o.Measure), nil
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.3f%%", v*100) }

// iperf is the default microbenchmark with the given flow count (0 keeps
// the default).
func iperf(mode core.Mode, flows int) workload.Spec { return workload.Iperf(mode, flows, 0) }

// axis is the swept Iperf argument of a microbenchmark figure: its
// values, the format of one value's row label, and how a value maps to
// Iperf's (flows, ring) arguments.
type axis struct {
	vals  []int
	label string
	args  func(v int) (flows, ring int)
}

var (
	flowAxis = axis{[]int{5, 10, 20, 40}, "%d flows", func(v int) (int, int) { return v, 0 }}
	ringAxis = axis{[]int{256, 512, 1024, 2048}, "ring %d", func(v int) (int, int) { return 0, v }}
)

// counters is a microbenchmark figure's panels a–d: iperf over modes ×
// the axis, with the shared per-page counter columns.
func counters(id, title string, modes []core.Mode, a axis) figure {
	return figure{id, func(o Options) Table {
		t := Table{ID: id, Title: title, Header: []string{
			"mode", "flows/ring", "rx_gbps", "drop", "iotlb/pg", "ptL1/pg", "ptL2/pg", "ptL3/pg", "reads/pg", "acks/pg",
		}}
		spec := func(m core.Mode, v int) workload.Spec {
			flows, ring := a.args(v)
			return workload.Iperf(m, flows, ring)
		}
		return sweep(o, t, modes, a.vals, spec, func(v int, r host.Results) []string {
			return []string{
				r.Mode.String(), fmt.Sprintf(a.label, v), f1(r.RxGbps), pct(r.DropRate),
				f2(r.IOTLBPerPage), f3(r.L1PerPage), f3(r.L2PerPage), f3(r.L3PerPage),
				f2(r.ReadsPerPage), f3(r.AcksPerPage),
			}
		})
	}}
}

// locality is a microbenchmark figure's panel e, summarised the way the
// paper plots it: the distribution of PTcache-L3 stack distances at
// allocation, for one mode along the axis.
func locality(id, title string, mode core.Mode, a axis) figure {
	return figure{id, func(o Options) Table {
		t := Table{ID: id, Title: title,
			Header: []string{"mode", "case", "allocs", "mean_dist", "frac>=32", "frac>=64", "frac>=128"}}
		spec := func(m core.Mode, v int) workload.Spec {
			flows, ring := a.args(v)
			return workload.IperfTrace(m, flows, ring, 200000)
		}
		return sweep(o, t, []core.Mode{mode}, a.vals, spec, func(v int, r host.Results) []string {
			tr := r.Trace
			warm, sum := 0, 0
			for _, d := range tr.Dists {
				if d >= 0 {
					warm++
					sum += d
				}
			}
			mean := 0.0
			if warm > 0 {
				mean = float64(sum) / float64(warm)
			}
			return []string{
				r.Mode.String(), fmt.Sprintf(a.label, v), fmt.Sprintf("%d", len(tr.Dists)), f2(mean),
				f3(tr.FractionAbove(32)), f3(tr.FractionAbove(64)), f3(tr.FractionAbove(128)),
			}
		})
	}}
}

// app is a Figure 11 application figure: mk's workload across payload
// sizes for IOMMU off, Linux strict and F&S.
func app(id, title string, mk func(core.Mode, int) workload.Spec, sizes ...int) figure {
	return figure{id, func(o Options) Table {
		t := Table{ID: id, Title: title,
			Header: []string{"mode", "size", "app_gbps", "drop", "iotlb/pg", "reads/pg", "p99_us"}}
		return sweep(o, t, []core.Mode{core.Off, core.Strict, core.FNS}, sizes, mk, func(size int, r host.Results) []string {
			p99 := float64(r.Percentiles()[2]) / 1000
			return []string{
				r.Mode.String(), fmt.Sprintf("%dKB", size>>10),
				f1(r.MsgGbps), pct(r.DropRate), f2(r.IOTLBPerPage), f2(r.ReadsPerPage),
				f1(p99),
			}
		})
	}}
}

// Fig9 regenerates Figure 9: RPC tail latency colocated with iperf,
// measured over the RPC window.
func Fig9(o Options) Table {
	t := Table{ID: "fig9", Title: "RPC tail latency under colocated iperf (§4.1)",
		Header: []string{"mode", "rpc_size", "p50_us", "p90_us", "p99_us", "p99.9_us", "p99.99_us", "rpcs"}}
	o.Measure = o.RPCMeasure
	return sweep(o, t, []core.Mode{core.Off, core.Strict, core.FNS}, []int{128, 4096, 32768}, workload.RPC,
		func(size int, r host.Results) []string {
			p := r.Percentiles()
			us := func(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1000) }
			return []string{
				r.Mode.String(), fmt.Sprintf("%dB", size),
				us(p[0]), us(p[1]), us(p[2]), us(p[3]), us(p[4]),
				fmt.Sprintf("%d", r.Completed),
			}
		})
}

// Fig10 regenerates Figure 10: concurrent Rx and Tx bulk traffic.
func Fig10(o Options) Table {
	t := Table{ID: "fig10", Title: "Extreme Rx/Tx interference (§4.1)",
		Header: []string{"mode", "core_pairs", "rx_gbps", "tx_gbps", "drop", "reads/pg"}}
	return sweep(o, t, []core.Mode{core.Off, core.Strict, core.FNS}, []int{1, 2, 4}, workload.Bidirectional,
		func(pairs int, r host.Results) []string {
			return []string{
				r.Mode.String(), fmt.Sprintf("%d", pairs),
				f1(r.RxGbps), f1(r.TxGbps), pct(r.DropRate), f2(r.ReadsPerPage),
			}
		})
}

// Fig12 regenerates the Figure 12 ablation: Linux, Linux+A (preserve),
// Linux+B (contiguous+batched), F&S on the Redis 8KB-value workload.
func Fig12(o Options) Table {
	t := Table{ID: "fig12", Title: "Contribution of each F&S idea, Redis 8KB values (§4.3)",
		Header: []string{"config", "app_gbps", "iotlb/pg", "ptL1/pg", "ptL3/pg", "reads/pg", "inv_reqs"}}
	label := map[core.Mode]string{
		core.Strict:         "Linux",
		core.StrictPreserve: "Linux+A (preserve PTcaches)",
		core.StrictContig:   "Linux+B (contig+batch)",
		core.FNS:            "F&S",
	}
	modes := []core.Mode{core.Strict, core.StrictPreserve, core.StrictContig, core.FNS}
	return sweep(o, t, modes, []int{8 << 10}, workload.Redis, func(_ int, r host.Results) []string {
		return []string{
			label[r.Mode], f1(r.MsgGbps), f2(r.IOTLBPerPage), f3(r.L1PerPage), f3(r.L3PerPage),
			f2(r.ReadsPerPage), fmt.Sprintf("%d", r.InvRequests),
		}
	})
}

// Model validates the §2.2 analytic model against the simulator and
// re-fits (l0, lm) from the first and last operating points, as the
// paper does.
func Model(o Options) Table {
	t := Table{ID: "model", Title: "Analytic model T = p/(l0 + M*lm) vs simulation (§2.2)",
		Header: []string{"mode", "flows", "sim_gbps", "model_gbps", "rel_err", "rx_reads/dma"}}
	var reads, gbps []float64
	t = sweep(o, t, []core.Mode{core.Strict}, flowAxis.vals, iperf, func(flows int, r host.Results) []string {
		est := model.ThroughputGbps(4096, r.RxReadsPerDMA, model.L0Ns, model.LmNs, 100)
		reads, gbps = append(reads, r.RxReadsPerDMA), append(gbps, r.RxGbps)
		return []string{
			"strict", fmt.Sprintf("%d", flows), f1(r.RxGbps), f1(est),
			pct(model.RelativeError(est, r.RxGbps)), f2(r.RxReadsPerDMA),
		}
	})
	last := len(reads) - 1
	if l0, lm, ok := model.FitL0Lm(4096, reads[0], gbps[0], reads[last], gbps[last]); ok {
		t.Rows = append(t.Rows, []string{
			"fit", "-", "-", "-", fmt.Sprintf("l0=%.0fns", l0), fmt.Sprintf("lm=%.0fns", lm),
		})
	}
	return t
}

// Deferred compares the safety/performance trade-off across all modes —
// an extension table beyond the paper's figures.
func Deferred(o Options) Table {
	t := Table{ID: "modes", Title: "All protection modes, default iperf (extension)",
		Header: []string{"mode", "strict_safety", "rx_gbps", "reads/pg", "inv_reqs", "stale_uses"}}
	return sweep(o, t, core.Modes(), []int{0}, iperf, func(_ int, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%v", r.Mode.StrictSafety()),
			f1(r.RxGbps), f2(r.ReadsPerPage),
			fmt.Sprintf("%d", r.InvRequests), fmt.Sprintf("%d", r.StaleIOTLB+r.StalePT),
		}
	})
}

// DescriptorSizes explores F&S on devices with smaller descriptors,
// including the single-page-descriptor case (§3 "Generality").
func DescriptorSizes(o Options) Table {
	t := Table{ID: "descsize", Title: "F&S vs strict across descriptor sizes (§3 generality)",
		Header: []string{"mode", "desc_pages", "rx_gbps", "reads/pg", "inv_reqs"}}
	spec := func(m core.Mode, pages int) workload.Spec {
		s := workload.Iperf(m, 0, 0)
		s.Host.DescriptorPages = pages
		if pages == 1 {
			// A single-page descriptor (Intel ICE, §3 generality) can
			// only hold standard-MTU frames.
			s.Host.MTU = 1500
			s.Host.RingPackets = 512
		}
		return s
	}
	return sweep(o, t, []core.Mode{core.Strict, core.FNS}, []int{1, 4, 16, 64}, spec, func(pages int, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%d", pages),
			f1(r.RxGbps), f2(r.ReadsPerPage), fmt.Sprintf("%d", r.InvRequests),
		}
	})
}

// CacheSizes sweeps the PTcache-L3 size — the footnote-3 sensitivity
// study (extension).
func CacheSizes(o Options) Table {
	t := Table{ID: "ptcache", Title: "PTcache-L3 size sensitivity, Linux strict (extension)",
		Header: []string{"mode", "l3_entries", "rx_gbps", "ptL3/pg", "reads/pg"}}
	spec := func(m core.Mode, size int) workload.Spec {
		s := workload.Iperf(m, 0, 0)
		s.Host.IOMMU.L3Size = size
		return s
	}
	return sweep(o, t, []core.Mode{core.Strict, core.FNS}, []int{16, 32, 64, 128}, spec, func(size int, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%d", size),
			f1(r.RxGbps), f3(r.L3PerPage), f2(r.ReadsPerPage),
		}
	})
}

// Hugepages explores the paper's §5 future-work direction: F&S combined
// with 2MB hugepage-backed descriptors, cutting the IOTLB miss count
// itself (at 2MB revocation granularity).
func Hugepages(o Options) Table {
	t := Table{ID: "huge", Title: "F&S + hugepages: reducing the miss count too (§5 extension)",
		Header: []string{"mode", "flows", "rx_gbps", "iotlb/pg", "reads/pg", "inv_reqs"}}
	return sweep(o, t, []core.Mode{core.Strict, core.FNS, core.FNSHuge}, []int{5, 40}, iperf, func(flows int, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%d", flows),
			f1(r.RxGbps), f2(r.IOTLBPerPage), f2(r.ReadsPerPage),
			fmt.Sprintf("%d", r.InvRequests),
		}
	})
}

// MemoryLatency sweeps the IOMMU-to-memory read latency l_m, the §2.2
// memory-contention observation: higher memory access latency inflates the
// per-walk cost, and F&S's ~1-read walks make it far less sensitive than
// Linux strict's multi-read walks (extension).
func MemoryLatency(o Options) Table {
	t := Table{ID: "memlat", Title: "Sensitivity to memory read latency l_m (§2.2 contention, extension)",
		Header: []string{"mode", "lm_ns", "rx_gbps", "reads/pg"}}
	spec := func(m core.Mode, lm sim.Duration) workload.Spec {
		s := workload.Iperf(m, 0, 0)
		s.Host.Lm = lm
		return s
	}
	return sweep(o, t, []core.Mode{core.Strict, core.FNS}, []sim.Duration{197, 300, 400}, spec, func(lm sim.Duration, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%d", int64(lm)),
			f1(r.RxGbps), f2(r.ReadsPerPage),
		}
	})
}

// Seeds reports run-to-run variance across simulation seeds (extension:
// the paper reports single-testbed numbers; the simulator can quantify
// sensitivity).
func Seeds(o Options) Table {
	t := Table{ID: "seeds", Title: "Throughput across simulation seeds (extension)",
		Header: []string{"mode", "seed", "rx_gbps", "reads/pg", "drop"}}
	spec := func(m core.Mode, seed int64) workload.Spec {
		s := workload.Iperf(m, 0, 0)
		s.Host.Seed = seed
		return s
	}
	return sweep(o, t, []core.Mode{core.Strict, core.FNS}, []int64{1, 2, 3, 4}, spec, func(seed int64, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%d", seed),
			f1(r.RxGbps), f2(r.ReadsPerPage), pct(r.DropRate),
		}
	})
}

// Storage explores cross-device IOMMU contention (extension): an
// NVMe-style storage device shares the IOMMU with the NIC; under strict
// mode its per-block map/unmap/invalidate traffic pollutes the caches the
// network datapath depends on.
func Storage(o Options) Table {
	t := Table{ID: "storage", Title: "Cross-device IOMMU contention: NIC + storage (extension)",
		Header: []string{"mode", "storage_GBps", "rx_gbps", "iotlb/pg", "reads/pg", "blocks"}}
	type result struct {
		r      host.Results
		blocks int64
	}
	cells := grid([]core.Mode{core.Strict, core.FNS}, []float64{0, 4, 8}...)
	rs := run(t.ID, o, cells, func(c cell[float64]) (result, error) {
		h, err := host.New(host.Config{Mode: c.mode})
		if err != nil {
			return result{}, err
		}
		var dev interface{ Blocks() int64 }
		if c.p > 0 {
			s, err := h.InstallStorage(host.StorageSpec{ReadGBps: c.p})
			if err != nil {
				return result{}, err
			}
			dev = s
		}
		out := result{r: h.Run(o.Warmup, o.Measure)}
		if dev != nil {
			out.blocks = dev.Blocks()
		}
		return out, nil
	})
	for i, c := range rs {
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), fmt.Sprintf("%.0f", cells[i].p),
			f1(c.r.RxGbps), f2(c.r.IOTLBPerPage), f2(c.r.ReadsPerPage),
			fmt.Sprintf("%d", c.blocks),
		})
	}
	return t
}

// Multidev sweeps the number of co-tenant storage devices sharing the
// IOMMU with the NIC (extension over the storage figure's single
// device): the paper's §1 point that one IOMMU serves every DMA device
// on the host, so strict-mode invalidation traffic scales with device
// count while F&S's contiguous mappings and IOTLB-only invalidations
// keep the network datapath's goodput flat.
func Multidev(o Options) Table {
	t := Table{ID: "multidev", Title: "Multi-device interference: NIC vs N storage co-tenants (extension)",
		Header: []string{"mode", "devices", "nic_gbps", "iotlb/pg", "reads/pg", "inv_total", "blocks"}}
	type result struct {
		r      host.Results
		blocks int64
	}
	cells := grid([]core.Mode{core.Strict, core.FNS}, 0, 1, 2, 4)
	rs := run(t.ID, o, cells, func(c cell[int]) (result, error) {
		topo := host.Topology{}
		for d := 0; d < c.p; d++ {
			// 1.5GB/s per device: enough aggregate DMA to collapse
			// strict mode at four co-tenants while staying under the
			// point where raw memory-bus and shared-IOTLB capacity
			// pressure drags F&S down too (that regime is mode-
			// independent and says nothing about protection cost).
			topo.Storage = append(topo.Storage, host.StorageSpec{ReadGBps: 1.5})
		}
		h, err := host.New(host.Config{Mode: c.mode, Topology: topo})
		if err != nil {
			return result{}, err
		}
		out := result{r: h.Run(o.Warmup, o.Measure)}
		for _, d := range h.Devices() {
			if d.Kind() == "storage" {
				out.blocks += d.Stats().Ops
			}
		}
		return out, nil
	})
	for i, c := range rs {
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), fmt.Sprintf("%d", cells[i].p),
			f1(c.r.RxGbps), f2(c.r.IOTLBPerPage), f2(c.r.ReadsPerPage),
			fmt.Sprintf("%d", c.r.InvRequests), fmt.Sprintf("%d", c.blocks),
		})
	}
	return t
}

// MemoryHog runs the network workloads against a co-tenant memory
// antagonist: past the bus's calibration point, every page-table read
// slows down, and strict mode's multi-read walks amplify the damage
// (§2.2's memory-contention observation, emergent rather than swept).
func MemoryHog(o Options) Table {
	t := Table{ID: "memhog", Title: "Memory-bandwidth antagonist (§2.2 contention, extension)",
		Header: []string{"mode", "hog_GBps", "rx_gbps", "mem_util", "reads/pg"}}
	spec := func(m core.Mode, hog float64) workload.Spec {
		s := workload.Iperf(m, 0, 0)
		s.Host.MemHogGBps = hog
		return s
	}
	return sweep(o, t, []core.Mode{core.Off, core.Strict, core.FNS}, []float64{0, 6, 12}, spec, func(hog float64, r host.Results) []string {
		return []string{
			r.Mode.String(), fmt.Sprintf("%.0f", hog),
			f1(r.RxGbps), f2(r.MemUtil), f2(r.ReadsPerPage),
		}
	})
}

// Timeline renders the telemetry sampler's per-interval series for strict
// vs F&S under a memory antagonist that switches on mid-measurement — the
// dynamics behind the steady-state MemoryHog table: F&S's ~1-read walks
// shrug off the bus contention that collapses strict mode's goodput.
// Every row is one sampling interval of one mode's run.
func Timeline(o Options) Table {
	t := Table{ID: "timeline", Title: "Goodput and miss-rate dynamics under mid-run memory contention (extension)",
		Header: []string{"mode", "t_ms", "rx_gbps", "iotlb/pg", "walk_reads", "mem_util"}}
	rs := run(t.ID, o, []core.Mode{core.Strict, core.FNS}, func(mode core.Mode) (host.Results, error) {
		s := workload.Iperf(mode, 0, 0)
		s.Host.MemHogGBps = 12
		s.Host.MemHogStart = o.Warmup + o.Measure/2
		s.Host.Telemetry.SampleEvery = o.Measure / 8
		s.Warmup, s.Measure = o.Warmup, o.Measure
		return s.Run()
	})
	for _, r := range rs {
		series := map[string]stats.Series{}
		for _, s := range r.Timeline {
			series[s.Name] = s
		}
		rx := series["rx_gbps"]
		for i := range rx.Times {
			t.Rows = append(t.Rows, []string{
				r.Mode.String(),
				f1(float64(rx.Times[i]) / 1e6),
				f1(rx.Values[i]),
				f2(series["iotlb_miss_per_pg"].Values[i]),
				fmt.Sprintf("%.0f", series["walk_reads"].Values[i]),
				f2(series["mem_util"].Values[i]),
			})
		}
	}
	return t
}

// CPUCost reports the driver-side protection CPU time per gigabyte moved —
// the per-core efficiency angle of [39, 42] that motivates F&S's batched
// invalidations (extension).
func CPUCost(o Options) Table {
	t := Table{ID: "cpucost", Title: "Protection CPU cost per GB (extension, cf. [39, 42])",
		Header: []string{"mode", "rx_gbps", "cpu_ms_per_GB", "inv_reqs"}}
	type result struct {
		r   host.Results
		cpu sim.Duration
	}
	rs := run(t.ID, o, core.Modes(), func(mode core.Mode) (result, error) {
		h, err := host.New(workload.Iperf(mode, 0, 0).Host)
		if err != nil {
			return result{}, err
		}
		before := h.Domain().Counters().CPUTime
		r := h.Run(o.Warmup, o.Measure)
		return result{r: r, cpu: h.Domain().Counters().CPUTime - before}, nil
	})
	for _, c := range rs {
		gb := c.r.RxGbps * float64(c.r.Measure) / 8e9 // GB moved in the window
		ms := 0.0
		if gb > 0 {
			ms = float64(c.cpu) / 1e6 / gb
		}
		t.Rows = append(t.Rows, []string{
			c.r.Mode.String(), f1(c.r.RxGbps), f2(ms), fmt.Sprintf("%d", c.r.InvRequests),
		})
	}
	return t
}

// Faults is the adversarial safety campaign: the canonical fault plan
// (internal/fault.Campaign) swept over intensity for Linux strict, F&S,
// and the deliberately unsafe defer-noshootdown strawman, with the
// translation auditor cross-checking every DMA against the live page
// table. The paper's safety claim is the strict and fns rows: zero
// stale-served DMAs at every intensity, while F&S retains ≥95% of its
// fault-free goodput. The strawman rows must show nonzero stale_served —
// the proof the auditor can actually see violations.
func Faults(o Options) Table {
	t := Table{ID: "faults", Title: "Fault-injection safety campaign: stale-served DMAs under the audit layer (extension)",
		Header: []string{"mode", "intensity", "rx_gbps", "goodput_vs_clean", "injected", "checked", "blocked", "stale_served", "retries"}}
	cells := grid([]core.Mode{core.Strict, core.FNS, core.DeferNoShootdown}, []float64{0, 0.5, 1}...)
	rs := run(t.ID, o, cells, func(c cell[float64]) (host.Results, error) {
		s := workload.Iperf(c.mode, 0, 0)
		s.Host.Faults = fault.Campaign(c.p)
		s.Host.FaultSeed = 1
		s.Host.Audit = true
		h, err := host.New(s.Host)
		if err != nil {
			return host.Results{}, err
		}
		return h.Run(o.Warmup, o.Measure), nil
	})
	// Each mode's intensity-0 cell is its fault-free baseline.
	clean := map[core.Mode]float64{}
	for i, r := range rs {
		if cells[i].p == 0 {
			clean[cells[i].mode] = r.RxGbps
		}
	}
	for i, r := range rs {
		ratio := 0.0
		if base := clean[cells[i].mode]; base > 0 {
			ratio = r.RxGbps / base
		}
		var s fault.SafetyReport
		if r.Safety != nil {
			s = *r.Safety
		}
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), f2(cells[i].p),
			f1(r.RxGbps), f2(ratio),
			fmt.Sprintf("%d", r.FaultsInjected),
			fmt.Sprintf("%d", s.Checked), fmt.Sprintf("%d", s.Blocked),
			fmt.Sprintf("%d", s.Violations()), fmt.Sprintf("%d", s.Retries),
		})
	}
	return t
}

// Cluster scales the incast out to N full hosts on the switched fabric
// (extension): every sender pays its own Tx protection costs and the
// receiver its Rx costs, so aggregate goodput tracks how fast each
// side's IOMMU path lets it move pages. F&S saturates the receiver's
// downlink and stays there as senders are added; strict mode's
// multi-read walks first starve the senders (low host counts) and then
// the receiver (large ones), so its aggregate degrades past its peak.
// Every host runs the translation auditor; the stale_per_host column is
// the per-host count of stale-served DMAs (all zeros for safe modes).
func Cluster(o Options) Table {
	t := Table{ID: "cluster", Title: "Cluster incast: N full hosts on a switched fabric (extension)",
		Header: []string{"mode", "hosts", "agg_gbps", "recv_drop", "recv_reads/pg", "stale_per_host"}}
	cells := grid([]core.Mode{core.Strict, core.FNS}, 2, 4, 8, 12)
	rs := run(t.ID, o, cells, func(c cell[int]) (host.ClusterResults, error) {
		return cluster(o, host.ClusterConfig{Hosts: c.p, Traffic: host.Incast, Host: host.Config{Mode: c.mode}})
	})
	for i, r := range rs {
		recv := r.Hosts[0]
		stale := make([]string, len(r.Hosts))
		for j, h := range r.Hosts {
			var v int64
			if h.Safety != nil {
				v = h.Safety.Violations()
			}
			stale[j] = fmt.Sprintf("%d", v)
		}
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), fmt.Sprintf("%d", cells[i].p),
			f1(r.AggRxGbps), pct(recv.DropRate), f2(recv.ReadsPerPage),
			strings.Join(stale, "/"),
		})
	}
	return t
}

// Rdma compares the two peer-flow shapes — two-sided send/recv and
// one-sided WRITE — across protection modes as the device-side ATS
// cache sweeps from undersized to window-covering (extension). Eight
// hosts run the balanced pairs pattern so every flow has a dedicated
// sink; the sink columns are the first pair's receiver. The table holds
// the paper's two claims at once: one-sided flows beat the CPU-paced
// send/recv shape at equal flow count (the sink core count drops out of
// the datapath — see sink_cpu), and the safety argument survives the
// device TLB — strict and F&S shoot the ATC down inside window
// recycling and audit zero stale DMAs at every capacity, while
// defer-noshootdown re-points window pages without any invalidate and
// turns every resident translation stale (stale_ats) the moment the
// cache is big enough to keep them (its goodput *rises* as it serves
// memory it no longer owns — the shoot-down cost it skips is exactly
// what the safe modes pay).
func Rdma(o Options) Table {
	t := Table{ID: "rdma", Title: "One-sided RDMA through a device-side ATS cache: goodput and audited safety (extension)",
		Header: []string{"mode", "op", "ats_entries", "agg_gbps", "sink_cpu", "atc_hit_rate", "atc_invalidated", "stale_ats", "stale_total"}}
	type flow struct {
		op  transport.Op
		ats int
	}
	cells := grid([]core.Mode{core.Strict, core.FNS, core.DeferNoShootdown},
		[]flow{{transport.SendRecv, 0}, {transport.Write, 64}, {transport.Write, 1024}, {transport.Write, 8192}}...)
	rs := run(t.ID, o, cells, func(c cell[flow]) (host.ClusterResults, error) {
		return cluster(o, host.ClusterConfig{Hosts: 8, Traffic: host.Pairs, Op: c.p.op,
			Host: host.Config{Mode: c.mode, ATSEntries: c.p.ats}})
	})
	for i, r := range rs {
		sink := r.Hosts[1]
		var staleATS int64
		for _, h := range r.Hosts {
			if h.Safety != nil {
				staleATS += h.Safety.StaleATS
			}
		}
		var dev host.DeviceResults // zero-valued under a zero-length window
		if len(sink.Devices) > 0 {
			dev = sink.Devices[0]
		}
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), cells[i].p.op.String(), fmt.Sprintf("%d", cells[i].p.ats),
			f1(r.AggRxGbps), f2(sink.MaxCPUUtil), f3(dev.ATSHitRate),
			fmt.Sprintf("%d", dev.ATCInvalidations),
			fmt.Sprintf("%d", staleATS), fmt.Sprintf("%d", r.Violations()),
		})
	}
	return t
}

// Capability compares the page-table protection family against the
// CAPIO-style capability family across buffer lifetimes, an adversarial
// fault campaign, and one-sided RDMA window recycling (extension). Four
// workloads isolate the trade. shortlived maps one-page descriptors at
// 1500-byte MTU, so per-buffer overhead dominates and cap's O(1)
// grant/revoke beats the page-table map-walk-shootdown sequence. bulk
// streams the full 64-page descriptors on two cores, so per-page costs
// dominate and F&S's contiguous mappings with batched invalidations
// amortise what cap pays as a grant per page. faults replays the full
// intensity-1 campaign under the audit layer. rdma recycles one-sided
// WRITE windows across eight hosts through a device-side ATS cache —
// the page-table modes pay an ATC shoot-down per recycle, while cap
// domains never attach an ATC and the re-grant is the whole revocation.
// The audit columns carry the safety ordering: cap is strict-equivalent
// (zero stale-served on every workload), while cap-lazyrevoke batches
// revocations the way deferred batches IOTLB flushes and exposes the
// same bounded stale window, restated in capability terms.
func Capability(o Options) Table {
	t := Table{ID: "capability", Title: "Capability-table protection: page-table family vs capability family on goodput and audited safety (extension)",
		Header: []string{"mode", "workload", "gbps", "reads/pg", "inv_reqs", "cap_checks", "cap_revocations", "checked", "stale_served"}}
	type result struct {
		gbps, readsPg                               float64
		invReqs, capChecks, capRevs, checked, stale int64
	}
	cells := grid([]core.Mode{core.Strict, core.FNS, core.Cap, core.CapLazyRevoke}, "shortlived", "bulk", "faults", "rdma")
	rs := run(t.ID, o, cells, func(c cell[string]) (result, error) {
		if c.p == "rdma" {
			r, err := cluster(o, host.ClusterConfig{Hosts: 8, Traffic: host.Pairs, Op: transport.Write,
				Host: host.Config{Mode: c.mode, ATSEntries: 1024}})
			if err != nil {
				return result{}, err
			}
			out := result{gbps: r.AggRxGbps, readsPg: r.Hosts[1].ReadsPerPage, stale: r.Violations()}
			for _, h := range r.Hosts {
				out.invReqs += h.InvRequests
				out.capChecks += h.CapChecks
				out.capRevs += h.CapRevocations
				if h.Safety != nil {
					out.checked += h.Safety.Checked
				}
			}
			return out, nil
		}
		hc := host.Config{Mode: c.mode, Audit: true}
		switch c.p {
		case "shortlived":
			hc.DescriptorPages, hc.MTU, hc.RingPackets = 1, 1500, 512
		case "bulk":
			hc.Cores = 2
		case "faults":
			hc.Faults, hc.FaultSeed = fault.Campaign(1), 1
		}
		h, err := host.New(hc)
		if err != nil {
			return result{}, err
		}
		r := h.Run(o.Warmup, o.Measure)
		var s fault.SafetyReport
		if r.Safety != nil {
			s = *r.Safety
		}
		return result{gbps: r.RxGbps, readsPg: r.ReadsPerPage, invReqs: r.InvRequests,
			capChecks: r.CapChecks, capRevs: r.CapRevocations,
			checked: s.Checked, stale: s.Violations()}, nil
	})
	for i, c := range rs {
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), cells[i].p,
			f1(c.gbps), f2(c.readsPg),
			fmt.Sprintf("%d", c.invReqs), fmt.Sprintf("%d", c.capChecks),
			fmt.Sprintf("%d", c.capRevs),
			fmt.Sprintf("%d", c.checked), fmt.Sprintf("%d", c.stale),
		})
	}
	return t
}

// Serving regenerates the serving-fleet churn scenario (extension): an
// open-loop fleet of 48 heavy-tailed request/response connections per
// host, each dying with the row's probability per request and reborn
// with a fresh DMA buffer, so map/unmap and IOVA alloc/free rates scale
// with churn. The iova_allocs and overflow columns carry the paper's
// allocator story at production churn: strict's per-buffer alloc/free
// falls off the rcache fast path into tree allocations (and, at high
// churn, the depot-overflow flush), inflating its tail latency, while
// F&S's preserved caches keep the fast path hot and the tails flat; cap
// pays no page-table walk at all. The cohort8 rows run the same churn
// 0.2 fleet aggregated 8 connections per flow cohort — every counter
// column is identical to the exact host row by the cohort package's
// grouping-invariance contract (only latency attribution is shared).
// The 8-host rows run the fleet on every host of a pairs cluster next
// to the pattern's peer flows; tails are the worst host, counts are
// summed. stale_served must be zero in every row — churn is exactly
// where a missed invalidation would let a recycled connection buffer be
// read through a stale translation.
func Serving(o Options) Table {
	t := Table{ID: "serving", Title: "Serving-fleet churn: open-loop heavy tails, connection churn, flow cohorts (extension)",
		Header: []string{"mode", "scope", "churn", "served", "gbps", "p99_us", "p999_us", "deaths", "iova_allocs", "overflow", "checked", "stale_served"}}
	type fleet struct {
		scope  string // "host", "cohort8", "8-host"
		churn  float64
		cohort int
		hosts  int // 0: single host
	}
	modes := []core.Mode{core.Strict, core.FNS, core.Cap}
	cells := append(grid(modes, []fleet{{"host", 0.05, 1, 0}, {"host", 0.2, 1, 0}, {"host", 0.5, 1, 0}, {"cohort8", 0.2, 8, 0}}...),
		grid(modes, fleet{"8-host", 0.2, 1, 8})...)
	type result struct {
		served, deaths, allocs, overflow, checked, stale int64
		gbps, p99, p999                                  float64
	}
	fold := func(out *result, r host.Results) {
		out.served += r.ServeCompleted
		out.deaths += r.ServeDeaths
		out.allocs += r.IOVA.TreeAllocs
		out.overflow += r.IOVA.OverflowFrees
		out.gbps += r.ServeGbps
		if r.Safety != nil {
			out.checked += r.Safety.Checked
			out.stale += r.Safety.Violations()
		}
		if r.ServeLatency == nil { // degenerate zero-length window
			return
		}
		us := func(q float64) float64 { return float64(r.ServeLatency.Quantile(q)) / 1e3 }
		if p := us(0.99); p > out.p99 {
			out.p99 = p
		}
		if p := us(0.999); p > out.p999 {
			out.p999 = p
		}
	}
	rs := run(t.ID, o, cells, func(c cell[fleet]) (result, error) {
		s := workload.Serving(c.mode, 48, c.p.churn, c.p.cohort)
		var out result
		if c.p.hosts == 0 {
			s.Host.Audit = true
			h, err := host.New(s.Host)
			if err != nil {
				return result{}, err
			}
			fold(&out, h.Run(o.Warmup, o.RPCMeasure))
			return out, nil
		}
		r, err := cluster(o, host.ClusterConfig{Hosts: c.p.hosts, Traffic: host.Pairs,
			Host: host.Config{Mode: c.mode, Serve: s.Host.Serve}})
		if err != nil {
			return result{}, err
		}
		for _, hr := range r.Hosts {
			fold(&out, hr)
		}
		return out, nil
	})
	for i, c := range rs {
		t.Rows = append(t.Rows, []string{
			cells[i].mode.String(), cells[i].p.scope, f2(cells[i].p.churn),
			fmt.Sprintf("%d", c.served), f1(c.gbps), f1(c.p99), f1(c.p999),
			fmt.Sprintf("%d", c.deaths),
			fmt.Sprintf("%d", c.allocs), fmt.Sprintf("%d", c.overflow),
			fmt.Sprintf("%d", c.checked), fmt.Sprintf("%d", c.stale),
		})
	}
	return t
}

// adaptivePhases runs the adaptive scenario's three cells — static
// strict, static F&S, and F&S with the control plane attached — through
// a three-phase run derived from o.Measure: a clean phase, a bounded
// burst of injected device misbehaviour (fault.Plan's activity window),
// and a memory-antagonist phase. It returns the per-cell Results plus
// the phase geometry (everything is a multiple of the sampling interval
// e, so phase boundaries land exactly on sampler ticks). The controller
// cell arms one guard rule on the audited blocked-DMA counter: any
// blocked DMA in an evaluation tick is evidence of a misbehaving device
// and drops the domain to strict until a full tick passes clean.
func adaptivePhases(o Options) (rs []host.Results, warmup, e sim.Duration) {
	e = o.Measure / 8
	if e <= 0 {
		e = 1
	}
	warmup = 2 * e
	ctl := &control.Config{
		Every: e / 4,
		Rules: []control.Rule{{
			Kind:     control.Guard,
			Metric:   "audit.blocked",
			High:     1,
			Low:      0,
			Safe:     core.Strict,
			Fast:     core.FNS,
			Cooldown: 2 * e,
		}},
	}
	// The burst doubles the canonical campaign's device-misbehaviour
	// rates so the audit signal rises within a fraction of one sampling
	// interval of the window opening.
	plan := fault.Campaign(1)
	plan.StrayDMA, plan.WildDMA = 0.05, 0.03
	plan.Start, plan.For = warmup+2*e, 2*e
	var specs []workload.Spec
	for _, cell := range []struct {
		mode core.Mode
		ctl  *control.Config
	}{{core.Strict, nil}, {core.FNS, nil}, {core.FNS, ctl}} {
		s := workload.Iperf(cell.mode, 0, 0)
		s.Host.Faults = plan
		s.Host.FaultSeed = 1
		s.Host.Audit = true
		s.Host.MemHogGBps = 12
		s.Host.MemHogStart = warmup + 4*e
		s.Host.Telemetry.SampleEvery = e
		s.Host.Control = cell.ctl
		s.Warmup = warmup
		s.Measure = 8 * e
		specs = append(specs, s)
	}
	return run("adaptive", o, specs, workload.Spec.Run), warmup, e
}

// adaptiveGoodput buckets one run's sampled goodput into the three
// phases (clean, burst, memhog) by sample end time. The first sample of
// every phase is a transition interval — it straddles the controller's
// reaction latency (at most a few evaluation ticks) — and is excluded
// from the phase mean, uniformly for every cell.
func adaptiveGoodput(r host.Results, warmup, e sim.Duration) [3]float64 {
	var rx stats.Series
	for _, s := range r.Timeline {
		if s.Name == "rx_gbps" {
			rx = s
		}
	}
	cleanEnd := sim.Time(warmup + 2*e)
	burstEnd := sim.Time(warmup + 4*e)
	var phases [3][]float64
	for i, t := range rx.Times {
		switch {
		case t <= cleanEnd:
			phases[0] = append(phases[0], rx.Values[i])
		case t <= burstEnd:
			phases[1] = append(phases[1], rx.Values[i])
		default:
			phases[2] = append(phases[2], rx.Values[i])
		}
	}
	var out [3]float64
	for p, vals := range phases {
		if len(vals) > 1 {
			vals = vals[1:]
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if len(vals) > 0 {
			out[p] = sum / float64(len(vals))
		}
	}
	return out
}

// Adaptive runs the control plane against the static modes it arbitrates
// between (extension; ROADMAP item 4). Three cells share one three-phase
// scenario: clean traffic, then a bounded burst of injected device
// misbehaviour (stray/wild DMAs under the audit layer), then a memory-
// bandwidth antagonist. Static strict pays for its per-buffer
// invalidations exactly when the burst's completion drops stall them;
// static F&S holds its goodput everywhere but keeps serving through its
// relaxed window while devices misbehave. The adaptive cell starts from
// F&S with one guard rule on the audited blocked-DMA counter: the burst
// drops it to strict within a fraction of a sampling interval — new
// mappings pay strict's map/invalidate sequence while mappings stamped
// under F&S retire on their origin policy, which is why the fallback
// costs a few percent rather than static strict's burst dip — and one
// clean evaluation tick after the burst ends it returns to F&S. The
// vs_ref columns divide each cell's phase goodput by the best static
// goodput of that phase; the acceptance claim is the adaptive row's
// three ratios ≥ 0.95 with at least two switches and zero stale-served
// DMAs in every cell.
func Adaptive(o Options) Table {
	t := Table{ID: "adaptive", Title: "Adaptive control plane vs static modes across clean/burst/antagonist phases (extension)",
		Header: []string{"mode", "clean_gbps", "burst_gbps", "memhog_gbps", "vs_ref_clean", "vs_ref_burst", "vs_ref_memhog", "switches", "checked", "blocked", "stale_served"}}
	rs, warmup, e := adaptivePhases(o)
	labels := []string{"strict", "fns", "adaptive"}
	var goodput [3][3]float64
	for i, r := range rs {
		goodput[i] = adaptiveGoodput(r, warmup, e)
	}
	// The per-phase reference is the better static mode's goodput.
	var ref [3]float64
	for p := 0; p < 3; p++ {
		ref[p] = goodput[0][p]
		if goodput[1][p] > ref[p] {
			ref[p] = goodput[1][p]
		}
	}
	for i, r := range rs {
		var s fault.SafetyReport
		if r.Safety != nil {
			s = *r.Safety
		}
		row := []string{labels[i]}
		for p := 0; p < 3; p++ {
			row = append(row, f1(goodput[i][p]))
		}
		for p := 0; p < 3; p++ {
			ratio := 0.0
			if ref[p] > 0 {
				ratio = goodput[i][p] / ref[p]
			}
			row = append(row, f2(ratio))
		}
		row = append(row,
			fmt.Sprintf("%d", len(r.Control)),
			fmt.Sprintf("%d", s.Checked), fmt.Sprintf("%d", s.Blocked),
			fmt.Sprintf("%d", s.Violations()))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// clusterScaleCell is one (traffic, hosts, shards) configuration of the
// clusterscale figure.
type clusterScaleCell struct {
	traffic host.TrafficPattern
	hosts   int
	shards  int
}

// clusterScaleGrid is the published grid: the paper's incast and the
// balanced pairs pattern, 64-256 hosts, single-engine vs four shards.
func clusterScaleGrid() []clusterScaleCell {
	var cells []clusterScaleCell
	for _, traffic := range []host.TrafficPattern{host.Incast, host.Pairs} {
		for _, hosts := range []int{64, 128, 256} {
			for _, shards := range []int{1, 4} {
				cells = append(cells, clusterScaleCell{traffic, hosts, shards})
			}
		}
	}
	return cells
}

// clusterScaleTable runs the cells strictly sequentially — never through
// the runner pool — so each cell's wall-clock measurement is honest. The
// deterministic columns (goodput, rounds, safety) land in Rows and are
// golden-locked; per-cell wall-clock and the derived sharded-vs-single
// speedups land in Notes, which the JSON artifact publishes but the
// golden rendering excludes.
func clusterScaleTable(cells []clusterScaleCell, o Options) Table {
	t := Table{ID: "clusterscale",
		Title:  "Sharded conservative-parallel engine at cluster scale (extension)",
		Header: []string{"traffic", "hosts", "shards", "agg_gbps", "rounds", "stale_total"}}
	type cfgKey struct {
		traffic host.TrafficPattern
		hosts   int
	}
	wall := map[clusterScaleCell]time.Duration{}
	maxShards := map[cfgKey]int{}
	for _, c := range cells {
		cl, err := host.NewCluster(host.ClusterConfig{
			Hosts:   c.hosts,
			Traffic: c.traffic,
			Shards:  c.shards,
			Host:    host.Config{Mode: core.FNS, Audit: true},
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: clusterscale: %v", err))
		}
		start := time.Now()
		r := cl.Run(o.Warmup, o.Measure)
		elapsed := time.Since(start)
		wall[c] = elapsed
		k := cfgKey{c.traffic, c.hosts}
		if c.shards > maxShards[k] {
			maxShards[k] = c.shards
		}
		var stale int64
		for _, h := range r.Hosts {
			if h.Safety != nil {
				stale += h.Safety.Violations()
			}
		}
		t.Rows = append(t.Rows, []string{
			string(c.traffic), fmt.Sprintf("%d", c.hosts), fmt.Sprintf("%d", c.shards),
			f1(r.AggRxGbps), fmt.Sprintf("%d", cl.Rounds()), fmt.Sprintf("%d", stale),
		})
		t.Notes = append(t.Notes, fmt.Sprintf("%s hosts=%d shards=%d wall_ms=%d",
			c.traffic, c.hosts, c.shards, elapsed.Milliseconds()))
	}
	for _, c := range cells {
		k := cfgKey{c.traffic, c.hosts}
		if c.shards != 1 || maxShards[k] <= 1 {
			continue
		}
		base, sharded := wall[c], wall[clusterScaleCell{c.traffic, c.hosts, maxShards[k]}]
		if sharded > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s hosts=%d speedup_shards%d=%.2f",
				c.traffic, c.hosts, maxShards[k], float64(base)/float64(sharded)))
		}
	}
	return t
}

// ClusterScale exercises the sharded conservative-parallel engine at the
// paper's target cluster sizes. Its scaling story is pattern-dependent,
// and deliberately so: the balanced pairs pattern spreads simulation
// events almost evenly across shards (within a few percent), so its
// wall-clock drops near-linearly with shards on a multi-core machine;
// incast concentrates roughly two thirds of all events on the receiver's
// shard, so conservative parallelism cannot speed it up much — the
// classic hot-LP bound in parallel DES. Both are published: pairs
// demonstrates the engine scales, incast demonstrates the fidelity
// columns (goodput, zero stale-served DMAs) are preserved at 64-256
// hosts either way.
func ClusterScale(o Options) Table {
	return clusterScaleTable(clusterScaleGrid(), o)
}

// figure is one row of the figure table: an id and the function that
// regenerates its table.
type figure struct {
	id string
	fn func(Options) Table
}

// figures is the one figure table: every id with its function, in
// presentation order. ByID and IDs both read it. Figures 2, 3, 7 and 8
// (panels a–d) and their locality panels e differ only in their modes
// and swept axis, and Figure 11's panels only in their application.
var figures = []figure{
	counters("fig2", "Linux strict vs IOMMU off, flow sweep (§2.2)",
		[]core.Mode{core.Off, core.Strict}, flowAxis),
	locality("fig2e", "PTcache-L3 locality, Linux strict, flow sweep", core.Strict, flowAxis),
	counters("fig3", "Linux strict vs IOMMU off, ring-size sweep (§2.2)",
		[]core.Mode{core.Off, core.Strict}, ringAxis),
	locality("fig3e", "PTcache-L3 locality, Linux strict, ring sweep", core.Strict, ringAxis),
	counters("fig7", "F&S eliminates protection overheads, flow sweep (§4.1)",
		[]core.Mode{core.Off, core.Strict, core.FNS}, flowAxis),
	locality("fig7e", "PTcache-L3 locality, F&S, flow sweep", core.FNS, flowAxis),
	counters("fig8", "F&S under growing IO working sets, ring sweep (§4.1)",
		[]core.Mode{core.Off, core.Strict, core.FNS}, ringAxis),
	locality("fig8e", "PTcache-L3 locality, F&S, ring sweep", core.FNS, ringAxis),
	{"fig9", Fig9}, {"fig10", Fig10},
	app("fig11a", "Redis SET throughput vs value size (§4.2)",
		workload.Redis, 4<<10, 16<<10, 64<<10, 128<<10),
	app("fig11b", "Nginx page throughput vs page size (§4.2)",
		workload.Nginx, 128<<10, 512<<10, 2<<20),
	app("fig11c", "SPDK read throughput vs block size (§4.2)",
		workload.SPDK, 32<<10, 64<<10, 128<<10, 256<<10),
	{"fig12", Fig12}, {"model", Model}, {"modes", Deferred},
	{"descsize", DescriptorSizes}, {"ptcache", CacheSizes}, {"huge", Hugepages},
	{"memlat", MemoryLatency}, {"seeds", Seeds}, {"storage", Storage},
	{"multidev", Multidev}, {"memhog", MemoryHog}, {"timeline", Timeline},
	{"cpucost", CPUCost}, {"faults", Faults},
	{"cluster", Cluster}, {"clusterscale", ClusterScale}, {"rdma", Rdma},
	{"capability", Capability}, {"serving", Serving}, {"adaptive", Adaptive},
}

// ByID returns one table by its figure id.
func ByID(id string, o Options) (Table, error) {
	for _, f := range figures {
		if f.id == id {
			return f.fn(o), nil
		}
	}
	return Table{}, fmt.Errorf("experiments: unknown figure %q (see IDs())", id)
}

// IDs lists the available figure ids in presentation order.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}
