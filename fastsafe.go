// Public API: a stable, dependency-free facade over the simulator for
// embedding in other tools. The full-fidelity interfaces live in the
// internal packages (see README); this surface covers the common case —
// "simulate this configuration, give me the paper's metrics".
package fastsafe

import (
	"context"
	"fmt"

	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/fabric"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

// Mode names a memory-protection datapath.
type Mode string

// The implemented protection modes.
const (
	// Off disables the IOMMU (no protection).
	Off Mode = "off"
	// Strict is Linux's strict mode: per-page unmap + full invalidation.
	Strict Mode = "strict"
	// Deferred is Linux's lazy mode: batched domain flushes, unsafe window.
	Deferred Mode = "deferred"
	// StrictPreserve is ablation A: strict + preserved page-table caches.
	StrictPreserve Mode = "strict+preserve"
	// StrictContig is ablation B: contiguous IOVAs + batched invalidations.
	StrictContig Mode = "strict+contig"
	// FNS is the paper's Fast & Safe design (A + B).
	FNS Mode = "fns"
	// Persistent never unmaps (DAMN-style weak-safety baseline).
	Persistent Mode = "persistent"
	// FNSHuge is F&S over 2MB hugepage-backed descriptors (§5 future work).
	FNSHuge Mode = "fns+huge"
	// DeferNoShootdown is a deliberately unsafe strawman: F&S's deferred
	// frees without the IOTLB shootdowns. It exists so fault-injection
	// audits (Options.Faults) have a mode that provably serves stale
	// translations; it is excluded from Modes().
	DeferNoShootdown Mode = "defer-noshootdown"
	// Cap is the CAPIO-style capability family: DMA validates against a
	// per-domain capability table (no page-table walk, no IOTLB), and
	// unmap revokes the grant synchronously — strict-equivalent safety
	// with O(1) checks. Excluded from Modes() sweeps.
	Cap Mode = "cap"
	// CapLazyRevoke batches capability revocations like deferred mode
	// batches IOTLB flushes, trading a bounded stale-capability window
	// for cheaper unmaps. Excluded from Modes() sweeps.
	CapLazyRevoke Mode = "cap-lazyrevoke"
)

// Modes lists every implemented protection mode.
func Modes() []Mode {
	var out []Mode
	for _, m := range core.Modes() {
		out = append(out, Mode(m.String()))
	}
	return out
}

// Options configures one simulation. Zero values take the paper's §2.2
// testbed defaults (100Gbps NIC, 128Gbps PCIe, 4KB MTU, ring 256, five
// cores, five bulk flows).
type Options struct {
	Mode        Mode
	Flows       int     // bulk Rx flows (default 5)
	TxFlows     int     // bulk Tx flows, one extra core each
	Cores       int     // cores serving Rx flows (default 5)
	RingPackets int     // Rx ring size per core (default 256)
	MTU         int     // bytes (default 4096)
	Seed        int64   // deterministic seed (default 1)
	MemHogGBps  float64 // co-tenant memory-bandwidth antagonist
	// MemHogStartMS delays the antagonist's onset to a virtual time in
	// milliseconds (0 = active from the start), so a sampled run can
	// watch the transition into memory contention.
	MemHogStartMS int
	WarmupMS      int // default 10
	MeasureMS     int // default 30

	// SampleUS enables the telemetry sampler: every SampleUS microseconds
	// of virtual time the per-interval series land in Report.Timeline.
	// 0 disables sampling (the default); sampling never changes the
	// simulation's results, only observes them.
	SampleUS int

	// Devices attaches co-tenant DMA devices sharing the host's IOMMU
	// with the primary NIC. Their interference shows up both in the
	// top-level (primary NIC) metrics and in Report.Devices.
	Devices []DeviceOptions

	// Faults enables deterministic fault injection. A bare number is a
	// canonical-campaign intensity ("1" ≈ the paper-grade adversarial
	// run); otherwise a comma-separated key=value spec, e.g.
	// "invdrop=0.02,straydma=0.05,linkflap=3ms" (see internal/fault.Parse
	// for the full key list). Empty disables injection and leaves every
	// simulation byte-identical to a build without the fault layer.
	Faults string
	// FaultSeed seeds the injector's private RNG stream independently of
	// Seed; 0 inherits Seed. Same Options + same FaultSeed replays the
	// identical fault sequence.
	FaultSeed int64
	// Audit cross-checks every completed device translation against the
	// live page table and reports the tally in Report.Safety. Implied by
	// Faults; on its own it audits a fault-free run (zero overhead on
	// simulated time — the auditor is an observer).
	Audit bool

	// Control installs the adaptive protection control plane: a
	// deterministic rule engine on the virtual clock that watches the
	// telemetry registry and switches each NIC domain's protection mode
	// through a safe transition protocol. The spec is ';'-separated
	// rule segments plus an optional evaluation period, e.g.
	//
	//	"every=500us;guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=2ms"
	//
	// A guard rule escalates to its safe mode while the watched
	// counter's per-tick delta crosses high and relaxes at low; a
	// pressure rule watches a level the same way toward its fast mode.
	// Empty disables the control plane and leaves every simulation
	// byte-identical to a build without it. Decisions land in
	// Report.ModeSwitches.
	Control string

	// ATSEntries sizes each device's ATS translation cache (the device
	// TLB) in 4KB entries. 0, the default, attaches no device cache:
	// every DMA translates at the IOMMU and results are byte-identical
	// to builds without ATS. Positive values let devices cache
	// translations locally — hits skip the IOMMU, misses pay an ATS
	// request, faults fall back to PRI, and every unmap additionally
	// shoots the device cache down through the invalidation queue.
	ATSEntries int

	// Serve enables the serving-fleet churn scenario: an open-loop fleet
	// of heavy-tailed request/response connections replaces the bulk
	// iperf flows (unless Flows is set explicitly). nil disables it.
	Serve *ServeOptions
}

// ServeOptions configures the serving-fleet churn workload: open-loop
// Poisson arrivals, bounded-Pareto request/response sizes, and
// connection churn — each connection dies with probability Churn per
// request and is reborn with a fresh DMA buffer, so IOVA alloc/free and
// (un)map rates scale with the churn rate.
type ServeOptions struct {
	// Conns is the number of open-loop connections (>= 1).
	Conns int
	// Churn is the per-request connection death probability, in (0, 1].
	Churn float64
	// Cohort aggregates that many identical connections into one
	// flow-aggregate sharing a simulated latency model; 1 (or 0, the
	// default) simulates every connection exactly. Aggregation never
	// changes counters or goodput — only latency attribution.
	Cohort int
}

// DeviceOptions describes one co-tenant DMA device.
type DeviceOptions struct {
	// Kind selects the device model: "storage" (NVMe-style block reads,
	// the default) or "nic" (a second full network datapath).
	Kind string
	// Mode is the device's protection mode; empty inherits Options.Mode.
	Mode Mode
	// RateGBps is the storage read bandwidth in decimal GB/s (storage
	// only; default 8).
	RateGBps float64
}

// Report is the simulation outcome, in the units the paper plots.
type Report struct {
	Mode Mode

	RxGbps   float64 // application-level receive goodput
	TxGbps   float64 // transmit goodput (bidirectional runs)
	DropRate float64 // NIC tail drops / arrivals

	IOTLBMissesPerPage float64
	PTcacheL1PerPage   float64
	PTcacheL2PerPage   float64
	PTcacheL3PerPage   float64
	MemReadsPerPage    float64
	AcksPerPage        float64

	MaxCPUUtilization float64
	MemUtilization    float64

	// Safety accounting: both must be zero for every strict-safety mode.
	StaleIOTLBUses int64
	StalePTUses    int64

	// ModeSwitches is the control plane's applied-decision log over the
	// whole run, in virtual-time order; empty unless Options.Control
	// installed a controller.
	ModeSwitches []ModeSwitch

	// FaultsInjected counts the faults the injector fired inside the
	// measurement window (zero without Options.Faults).
	FaultsInjected int64
	// Safety is the translation audit over the measurement window; nil
	// unless Options.Audit or Options.Faults enabled the auditor.
	Safety *SafetyReport

	// RxDMALatency and TxDMALatency summarise the primary NIC's PCIe DMA
	// completion latencies over the measurement window.
	RxDMALatency LatencyReport
	TxDMALatency LatencyReport

	// Serving-fleet outputs; all zero unless Options.Serve was set.
	ServeCompleted int64         // requests answered in the window
	ServeGbps      float64       // request+response goodput
	ServeDeaths    int64         // connection deaths (churn events)
	ServeExpired   int64         // requests abandoned after drops
	ServeLatency   LatencyReport // end-to-end request latency

	// Timeline holds the sampled per-interval series over the measurement
	// window; empty unless Options.SampleUS was set.
	Timeline []Series

	// Devices is the per-device breakdown (primary NIC first, then the
	// co-tenants in Options.Devices order).
	Devices []DeviceReport
}

// ModeSwitch is one applied control-plane decision: at AtNS of virtual
// time, the rule watching Metric (whose observed delta or level was
// Value) moved Device's protection mode From -> To.
type ModeSwitch struct {
	AtNS   int64
	Device string
	Rule   string
	Metric string
	Value  float64
	From   Mode
	To     Mode
}

// Series is one sampled telemetry metric: Values[i] was recorded at
// TimesNS[i] nanoseconds of virtual time.
type Series struct {
	Name    string
	TimesNS []int64
	Values  []float64
}

// SafetyReport tallies the translation audit: every completed device DMA
// cross-checked against the live page table. StaleUnmapped and
// StaleRemapped are safety violations — Blocked and Retries are the
// protection working as designed.
type SafetyReport struct {
	Checked         int64 // translations audited
	Blocked         int64 // DMAs the IOMMU rejected (no live mapping)
	StaleUnmapped   int64 // DMAs served from a stale cache after unmap
	StaleRemapped   int64 // DMAs served to the wrong page after IOVA reuse
	StaleATS        int64 // DMAs served from a stale device-TLB (ATS) entry
	StaleCapability int64 // DMAs served by a grant that outlived its mapping (cap-lazyrevoke window)
	Retries         int64 // benign driver retries caused by injected faults
}

// Violations is the count of stale-served DMAs — the number the paper's
// safety claim requires to be zero for strict and F&S, and this
// codebase additionally requires to be zero for the eager cap mode.
func (s SafetyReport) Violations() int64 {
	return s.StaleUnmapped + s.StaleRemapped + s.StaleATS + s.StaleCapability
}

// LatencyReport summarises one latency distribution in microseconds.
type LatencyReport struct {
	Count                  int64
	P50us, P99us, P99_99us float64
}

// DeviceReport is one DMA device's share of the measurement window.
type DeviceReport struct {
	Name string
	Kind string
	Mode Mode

	GoodputGbps   float64 // payload the device moved
	MissesPerPage float64 // shared-IOTLB misses per 4KB page of that payload
	WalkReads     int64   // page-table memory reads its translations caused
	Invalidations int64   // invalidation requests its domain submitted

	// Device-TLB (ATS) accounting; all zero when Options.ATSEntries is 0.
	ATSLookups       int64   // translations that consulted the device TLB
	ATSHitRate       float64 // fraction of lookups served locally
	ATCInvalidations int64   // device-TLB entries shot down by host unmaps

	// Capability-table accounting; all zero outside cap/cap-lazyrevoke.
	CapChecks      int64 // DMAs validated against the capability table
	CapRevocations int64 // grants killed (revokes and overwriting re-grants)
	CapDenied      int64 // DMAs blocked for want of a live grant
}

// latencyReport summarises a latency histogram; a nil or empty histogram
// yields the zero report.
func latencyReport(h *stats.Histogram) LatencyReport {
	if h == nil || h.Count() == 0 {
		return LatencyReport{}
	}
	us := func(q float64) float64 { return float64(h.Quantile(q)) / 1000 }
	return LatencyReport{Count: h.Count(), P50us: us(0.50), P99us: us(0.99), P99_99us: us(0.9999)}
}

// hostConfig converts Options into the host.Config both Simulate and
// SimulateCluster build on, parsing each spec string once. It rejects
// only what is the facade's own: the fields host.Config names or scales
// differently (Flows, WarmupMS, MeasureMS, MemHogStartMS, SampleUS,
// Devices, Serve.Churn) and the meaning the facade adds (Serve.Cohort 0
// is the exact model). host.New checks every other range.
func hostConfig(o Options) (host.Config, error) {
	fail := func(format string, args ...any) (host.Config, error) {
		return host.Config{}, fmt.Errorf("fastsafe: "+format, args...)
	}
	m, err := core.ParseMode(string(o.Mode))
	if err != nil {
		return fail("%w", err)
	}
	switch {
	case o.Flows < 0:
		return fail("Flows must be >= 0, got %d", o.Flows)
	case o.WarmupMS < 0:
		return fail("WarmupMS must be >= 0, got %d", o.WarmupMS)
	case o.MeasureMS < 0:
		return fail("MeasureMS must be >= 0, got %d", o.MeasureMS)
	case o.MemHogStartMS < 0:
		return fail("MemHogStartMS must be >= 0, got %d", o.MemHogStartMS)
	case o.SampleUS < 0:
		return fail("SampleUS must be >= 0, got %d", o.SampleUS)
	}
	var topo host.Topology
	for i, d := range o.Devices {
		var devMode *core.Mode // nil inherits the host mode
		if d.Mode != "" {
			dm, err := core.ParseMode(string(d.Mode))
			if err != nil {
				return fail("Devices[%d].Mode: %w", i, err)
			}
			devMode = &dm
		}
		switch d.Kind {
		case "", "storage":
			rate := d.RateGBps
			if rate < 0 {
				return fail("Devices[%d].RateGBps must be >= 0, got %g", i, rate)
			}
			if rate == 0 {
				rate = 8
			}
			topo.Storage = append(topo.Storage, host.StorageSpec{ReadGBps: rate, Mode: devMode})
		case "nic":
			// No rate knob: a NIC co-tenant runs full bulk flows.
			topo.NICs = append(topo.NICs, host.NICSpec{Mode: devMode})
		default:
			return fail("Devices[%d].Kind must be \"storage\" or \"nic\", got %q", i, d.Kind)
		}
	}
	plan, err := fault.Parse(o.Faults)
	if err != nil {
		return fail("%w", err)
	}
	ctl, err := control.Parse(o.Control)
	if err != nil {
		return fail("%w", err)
	}
	var serve *host.ServeConfig
	flows := o.Flows
	if s := o.Serve; s != nil {
		switch {
		case s.Churn <= 0 || s.Churn > 1:
			return fail("Serve.Churn must be in (0, 1], got %g (the per-request connection death probability)", s.Churn)
		case s.Cohort < 0:
			return fail("Serve.Cohort must be >= 0, got %d (0 and 1 simulate every connection exactly)", s.Cohort)
		}
		serve = &host.ServeConfig{Conns: s.Conns, Churn: s.Churn, Cohort: max(s.Cohort, 1)}
		if flows == 0 {
			flows = -1 // the fleet is the workload; no bulk flows unless asked
		}
	}
	return host.Config{
		Mode:        m,
		RxFlows:     flows,
		TxFlows:     o.TxFlows,
		Cores:       o.Cores,
		RingPackets: o.RingPackets,
		MTU:         o.MTU,
		Seed:        o.Seed,
		MemHogGBps:  o.MemHogGBps,
		MemHogStart: sim.Duration(o.MemHogStartMS) * sim.Millisecond,
		Topology:    topo,
		Serve:       serve,
		Control:     ctl,
		Faults:      plan,
		FaultSeed:   o.FaultSeed,
		Audit:       o.Audit,
		ATSEntries:  o.ATSEntries,
		Telemetry: host.TelemetryConfig{
			SampleEvery: sim.Duration(o.SampleUS) * sim.Microsecond,
		},
	}, nil
}

// windows returns the warmup and measurement durations for Options.
func (o Options) windows() (warm, meas sim.Duration) {
	w, m := o.WarmupMS, o.MeasureMS
	if w <= 0 {
		w = 10
	}
	if m <= 0 {
		m = 30
	}
	return sim.Duration(w) * sim.Millisecond, sim.Duration(m) * sim.Millisecond
}

// Simulate runs one experiment and returns its report.
func Simulate(o Options) (Report, error) {
	if o.Mode == "" {
		o.Mode = Strict
	}
	cfg, err := hostConfig(o)
	if err != nil {
		return Report{}, err
	}
	h, err := host.New(cfg)
	if err != nil {
		return Report{}, fmt.Errorf("fastsafe: %w", err)
	}
	warm, meas := o.windows()
	return reportFrom(h.Run(warm, meas)), nil
}

// reportFrom converts host-level Results into the facade's Report.
func reportFrom(r host.Results) Report {
	rep := Report{
		Mode:               Mode(r.Mode.String()),
		RxGbps:             r.RxGbps,
		TxGbps:             r.TxGbps,
		DropRate:           r.DropRate,
		IOTLBMissesPerPage: r.IOTLBPerPage,
		PTcacheL1PerPage:   r.L1PerPage,
		PTcacheL2PerPage:   r.L2PerPage,
		PTcacheL3PerPage:   r.L3PerPage,
		MemReadsPerPage:    r.ReadsPerPage,
		AcksPerPage:        r.AcksPerPage,
		MaxCPUUtilization:  r.MaxCPUUtil,
		MemUtilization:     r.MemUtil,
		StaleIOTLBUses:     r.StaleIOTLB,
		StalePTUses:        r.StalePT,
		FaultsInjected:     r.FaultsInjected,
		RxDMALatency:       latencyReport(r.Latencies.RxDMA),
		TxDMALatency:       latencyReport(r.Latencies.TxDMA),
		ServeCompleted:     r.ServeCompleted,
		ServeGbps:          r.ServeGbps,
		ServeDeaths:        r.ServeDeaths,
		ServeExpired:       r.ServeExpired,
		ServeLatency:       latencyReport(r.ServeLatency),
	}
	for _, d := range r.Control {
		rep.ModeSwitches = append(rep.ModeSwitches, ModeSwitch{
			AtNS:   int64(d.At),
			Device: d.Domain,
			Rule:   d.Rule,
			Metric: d.Metric,
			Value:  d.Value,
			From:   Mode(d.From.String()),
			To:     Mode(d.To.String()),
		})
	}
	if r.Safety != nil {
		rep.Safety = &SafetyReport{
			Checked:         r.Safety.Checked,
			Blocked:         r.Safety.Blocked,
			StaleUnmapped:   r.Safety.StaleUnmapped,
			StaleRemapped:   r.Safety.StaleRemapped,
			StaleATS:        r.Safety.StaleATS,
			StaleCapability: r.Safety.StaleCapability,
			Retries:         r.Safety.Retries,
		}
	}
	for _, s := range r.Timeline {
		out := Series{Name: s.Name, Values: append([]float64(nil), s.Values...)}
		for _, at := range s.Times {
			out.TimesNS = append(out.TimesNS, int64(at))
		}
		rep.Timeline = append(rep.Timeline, out)
	}
	for _, d := range r.Devices {
		rep.Devices = append(rep.Devices, DeviceReport{
			Name:             d.Name,
			Kind:             d.Kind,
			Mode:             Mode(d.Mode.String()),
			GoodputGbps:      d.GoodputGbps,
			MissesPerPage:    d.MissesPerPage,
			WalkReads:        d.WalkReads,
			Invalidations:    d.Invalidations,
			ATSLookups:       d.ATSLookups,
			ATSHitRate:       d.ATSHitRate,
			ATCInvalidations: d.ATCInvalidations,
			CapChecks:        d.CapChecks,
			CapRevocations:   d.CapRevocations,
			CapDenied:        d.CapDenied,
		})
	}
	return rep
}

// ClusterOptions configures an N-host simulation on a switched fabric.
type ClusterOptions struct {
	// Hosts is the cluster size (>= 2).
	Hosts int
	// Traffic is the flow pattern: "incast" (all hosts send to host 0,
	// the default), "alltoall" (every ordered pair), or "pairs" (host 2k
	// sends to host 2k+1).
	Traffic string
	// FlowsPerPair is the DCTCP flows per (src, dst) pair (default 1).
	FlowsPerPair int
	// FabricGbps is the per-port fabric line rate; 0 inherits the host
	// NIC line rate (100Gbps).
	FabricGbps float64
	// Oversub is the fabric core oversubscription factor: the shared
	// core runs at hosts*FabricGbps/Oversub. 0 keeps it non-blocking.
	Oversub float64
	// RDMA selects the verb every peer flow uses: "" or "sendrecv"
	// keeps the two-sided shape (remote CPU posts buffers and runs the
	// stack per packet); "read" or "write" switches to one-sided RDMA —
	// the initiator streams against a registered memory window that the
	// remote NIC resolves itself, through its device-side ATS cache
	// when Host.ATSEntries is set, with no remote core on the data
	// path.
	RDMA string
	// Shards splits the simulation across that many conservative-
	// parallel engine shards (hosts are assigned contiguously), letting
	// large clusters use multiple OS cores. 0 or 1 runs everything on
	// one engine — the default, and byte-identical to releases without
	// sharding. Values above Hosts clamp to one host per shard. Results
	// are deterministic for a given configuration regardless of Shards
	// or GOMAXPROCS.
	Shards int

	// Host configures every host identically. Flows and TxFlows are
	// ignored — cluster hosts run the pattern's peer flows instead of
	// flows to an abstract remote.
	Host Options
}

// ClusterReport is the outcome of an N-host simulation: one Report per
// host (index = host ID) plus cluster-wide aggregates.
type ClusterReport struct {
	Mode  Mode
	Hosts []Report

	AggRxGbps float64 // summed per-host receive goodput
	AggTxGbps float64 // summed per-host transmit goodput
	// StaleServedDMAs sums every host's audited safety violations; the
	// paper's claim is zero for strict and F&S at any cluster size.
	StaleServedDMAs int64
}

// SimulateCluster runs an N-host experiment on a switched fabric: every
// host is the same detailed machine Simulate measures (own IOMMU, PCIe,
// cores), connected through per-port switch queues, paying protection
// costs at both ends of every flow.
func SimulateCluster(o ClusterOptions) (ClusterReport, error) {
	if o.Host.Mode == "" {
		o.Host.Mode = Strict
	}
	// FabricGbps is the facade's name for the fabric's port rate.
	if o.FabricGbps < 0 {
		return ClusterReport{}, fmt.Errorf("fastsafe: FabricGbps must be >= 0, got %g", o.FabricGbps)
	}
	cfg, err := hostConfig(o.Host)
	if err != nil {
		return ClusterReport{}, err
	}
	op, err := transport.ParseOp(o.RDMA)
	if err != nil {
		return ClusterReport{}, fmt.Errorf("fastsafe: %w", err)
	}
	c, err := host.NewCluster(host.ClusterConfig{
		Hosts:        o.Hosts,
		Traffic:      host.TrafficPattern(o.Traffic),
		FlowsPerPair: o.FlowsPerPair,
		Shards:       o.Shards,
		Op:           op,
		Host:         cfg,
		Fabric: fabric.Config{
			PortGbps: o.FabricGbps,
			Oversub:  o.Oversub,
		},
	})
	if err != nil {
		return ClusterReport{}, fmt.Errorf("fastsafe: %w", err)
	}
	warm, meas := o.Host.windows()
	r := c.Run(warm, meas)
	rep := ClusterReport{
		Mode:            o.Host.Mode,
		AggRxGbps:       r.AggRxGbps,
		AggTxGbps:       r.AggTxGbps,
		StaleServedDMAs: r.Violations(),
	}
	for _, hr := range r.Hosts {
		rep.Hosts = append(rep.Hosts, reportFrom(hr))
	}
	return rep, nil
}

// Compare runs the same configuration under several modes, concurrently.
// Reports are returned in the order the modes were given. With no modes it
// compares Off, Strict and FNS.
func Compare(o Options, modes ...Mode) ([]Report, error) {
	return CompareContext(context.Background(), 0, o, modes...)
}

// CompareContext is Compare with cancellation and an explicit parallelism
// bound (parallel <= 0 means GOMAXPROCS).
func CompareContext(ctx context.Context, parallel int, o Options, modes ...Mode) ([]Report, error) {
	if len(modes) == 0 {
		modes = []Mode{Off, Strict, FNS}
	}
	return SweepContext(ctx, parallel, o, func(i int) Options {
		v := o
		v.Mode = modes[i]
		return v
	}, len(modes))
}

// Sweep runs n simulations concurrently across GOMAXPROCS workers and
// returns their reports in job order (reports[i] is the run configured by
// vary(i), independent of completion order). vary receives the job index
// and returns that job's Options — typically a closure over base:
//
//	reports, err := fastsafe.Sweep(base, func(i int) fastsafe.Options {
//		v := base
//		v.Flows = flows[i]
//		return v
//	}, len(flows))
//
// A nil vary runs base n times unchanged (useful only with per-job edits
// baked into base, e.g. seed studies via SweepContext wrappers). Every
// simulation is deterministic and self-contained, so a parallel sweep
// produces byte-identical Reports to running the same configurations
// sequentially. The first failing job cancels the jobs not yet started
// and its error is returned.
func Sweep(base Options, vary func(i int) Options, n int) ([]Report, error) {
	return SweepContext(context.Background(), 0, base, vary, n)
}

// SweepContext is Sweep with cancellation and an explicit parallelism
// bound (parallel <= 0 means GOMAXPROCS). A job that panics fails the
// sweep with a *runner.PanicError instead of crashing the process.
func SweepContext(ctx context.Context, parallel int, base Options, vary func(i int) Options, n int) ([]Report, error) {
	jobs := make([]runner.Job[Report], n)
	for i := 0; i < n; i++ {
		o := base
		if vary != nil {
			o = vary(i)
		}
		jobs[i] = func(context.Context) (Report, error) { return Simulate(o) }
	}
	return runner.Collect(ctx, runner.Config{Workers: parallel}, jobs)
}
