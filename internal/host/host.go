// Package host wires the full NIC-to-memory datapath of §2.1 into
// simulated servers: each Host is a detailed machine — NIC rings, its
// own IOMMU with protection domains, PCIe links, per-core CPU queues,
// DCTCP transport endpoints — and hosts compose into clusters over the
// switched network in internal/fabric. All of the paper's experiments
// run through this package.
//
// Two topologies are supported. The single-host experiments pair one
// detailed Host with an abstract remote end (infinitely fast CPU, no
// IOMMU) over a point-to-point wire — the degenerate two-node fabric. A
// Cluster (cluster.go) instead builds N full Hosts on the engines of a
// sim.Shards (one engine unless more shards are asked for), every one
// paying its own CPU, IOMMU and PCIe costs, and routes their peer flows
// through fabric.Switch ports. Every bulk transfer in either topology
// is one flow type (flow.go): a DCTCP sender at the source and a
// receiver at the sink, each end a detailed NIC or the abstract remote,
// with the transport op picking the two-sided stack datapath or the
// one-sided NIC datapath.
//
// Request/response traffic is one app (app.go) with two arrival
// sources: the closed-loop message workload behind Figures 9, 11 and 12
// (InstallMessages) and the open-loop serving fleet (Config.Serve). The
// host goldens traffic_rpc_serves_bulk_tx, traffic_msg_client_9k,
// traffic_msg_resend_serves and traffic_msg_resend_client lock the
// closed loop, the last two with resends; traffic_serve_strict_faults,
// traffic_serve_expiry and traffic_cluster_pairs_serving lock the fleet,
// the expiry one with abandoned requests.
//
// Each host owns its own IOMMU. Its DMA devices are declared in the
// config: the primary NIC by the flat fields, co-tenants by Topology
// (extra NIC datapaths, netdev.go; storage controllers, storage.go).
// New builds every one, each with its own protection domain over that
// host's translation hardware, and Devices lists them.
package host

import (
	"fmt"

	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/iommu"
	"fastsafe/internal/mem"
	"fastsafe/internal/model"
	"fastsafe/internal/pcie"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// The testbed calibration (§2.2), fitted once to reproduce the paper's
// measurements rather than set per experiment.
const (
	linkGbps  = 100                      // NIC line rate
	pcieGbps  = 128                      // PCIe 3.0 serialisation cap
	l0        = sim.Duration(model.L0Ns) // fitted DMA base latency
	propDelay = 2 * sim.Microsecond      // one-way propagation
	ecnBytes  = 150 << 10                // DCTCP marking threshold K
	// flushInterval is Linux's lazy-mode timer: a deferred domain
	// flushes its batch at least this often.
	flushInterval = 10 * sim.Millisecond
)

// Per-packet CPU costs, calibrated with core's per-operation costs so
// that five cores saturate the link with the IOMMU off.
const (
	stackCPU sim.Duration = 600 // network stack, per data packet
	ackTxCPU sim.Duration = 250 // building and sending an ACK
	ackRxCPU sim.Duration = 150 // processing a received ACK
	// irqCPU is charged when a delivery finds its core idle; NAPI
	// batching amortises it under load.
	irqCPU = 2 * sim.Microsecond
	// ringCPUFactor inflates stackCPU per doubling of the ring past 256
	// strides: the prefetcher-efficiency loss at large rings (§4.4).
	ringCPUFactor = 0.55
)

// delAck is the delayed-ACK flush timeout. Without it, flows whose
// window is smaller than the ACK coalescing factor stall until the next
// housekeeping tick.
const delAck = 30 * sim.Microsecond

// Config describes one experiment's host setup. Zero fields take the
// defaults of the paper's testbed (§2.2): 4KB MTU, 256-packet rings,
// 64-page descriptors, five cores, the fitted lm = 197ns. The rest of
// the testbed's calibration is the constants above.
type Config struct {
	Mode            core.Mode
	Cores           int // cores serving bulk Rx flows (default 5)
	RxFlows         int // bulk flows into the local host (default = Cores)
	TxFlows         int // bulk flows out of the local host, one extra core each
	MTU             int // data packet payload (default 4096)
	RingPackets     int // Rx ring strides per core (default 256)
	DescriptorPages int // pages per descriptor (64 on CX-5)

	// ATSEntries sizes the device-side ATS translation cache (ATC) on
	// every NIC datapath domain. 0 — the default — attaches no ATC: the
	// device sends every translation to the IOMMU, byte-identical to the
	// pre-ATS simulator. When positive, NIC DMAs first consult the
	// device-local cache; misses become ATS translation requests, faults
	// fall back to PRI, and host-side unmaps shoot the ATC down through
	// the invalidation queue (at core's ATC-invalidate cost extra per
	// request).
	ATSEntries int

	Lm             sim.Duration // fitted page-table read latency (default 197ns)
	NICBufferBytes int          // NIC input buffer (default 1MB)

	// Memory system (§2.2: two DDR4 channels, 46.9GB/s, DDIO disabled).
	MemHogGBps float64 // co-tenant memory bandwidth antagonist (0 = none)
	// MemHogStart delays the antagonist's onset to a virtual time (0 =
	// from construction), letting timeline experiments watch the
	// transition into contention mid-run.
	MemHogStart sim.Duration
	DDIO        bool // DMA lands in LLC instead of DRAM (paper default: off)

	// Topology declares co-tenant DMA devices beyond the primary NIC,
	// all sharing the host's IOMMU.
	Topology Topology

	// Serve, when non-nil, installs the open-loop serving-fleet workload
	// (app.go): Poisson arrivals, heavy-tailed request/response
	// sizes, connection churn, and cohort aggregation. In a cluster every
	// host runs its own fleet (seeded per host), colocated with whatever
	// peer traffic the cluster pattern generates.
	Serve *ServeConfig

	// PTcacheL3 sizes the IOMMU's last-level page-table cache (0 keeps
	// the default 32 entries): footnote 3's sensitivity study.
	PTcacheL3 int

	// Telemetry configures the observation layer: the timeline and the
	// PTcache-L3 locality trace. All of it is strictly read-only over
	// simulation state, so enabling it never changes simulated
	// behaviour.
	Telemetry TelemetryConfig

	// Control, when non-nil, installs the adaptive protection control
	// plane (internal/control): a deterministic rule engine ticking on
	// the virtual clock that watches the telemetry registry and switches
	// each NIC domain's protection mode through the SetMode transition
	// protocol. nil — the default — builds no controller, schedules no
	// events and reads no metrics, so runs are byte-identical to a
	// build without the package (the property tests lock this down).
	Control *control.Config

	// Faults is the adversarial fault plan (see internal/fault). The
	// zero plan is provably inert: no injector is built, no randomness
	// consumed, no events scheduled — runs are byte-identical to a build
	// without the fault layer.
	Faults fault.Plan
	// FaultSeed seeds the injector's private RNG; 0 uses Seed. Campaigns
	// vary FaultSeed while holding Seed to replay one workload under
	// many fault schedules.
	FaultSeed int64
	// Audit enables the translation safety auditor even with a zero
	// plan (it is always on when Faults is enabled). The audit is a pure
	// page-table read per translation — observation only.
	Audit bool

	Seed int64
}

// placement is a host's wiring into its simulation: the cluster's
// engine shards and its own one, the mail a credit to a host on another
// shard is posted through (flow.creditPeerTx), the registry, the prefix
// of its instrument names and the Tx cores its primary NIC provisions
// for peer flows. NewCluster sets all of it; New sets only a fresh
// registry, so a standalone host runs on a private engine.
type placement struct {
	shards    *sim.Shards // nil for a standalone host
	shard     int
	credits   *sim.Mail[txCredit]
	reg       *stats.Registry
	prefix    string // "host3." in a cluster
	peerSlots int
}

// Topology declares the DMA devices on the host beyond the primary NIC
// (which the flat Config fields configure). Every device gets its own
// protection domain over the one shared IOMMU.
type Topology struct {
	NICs    []NICSpec     // additional NIC datapaths, each with its own wire pair
	Storage []StorageSpec // NVMe-style storage controllers
}

// StorageSpec configures one storage device in a Topology.
type StorageSpec struct {
	ReadGBps float64    // target block-read bandwidth (decimal GB/s)
	Mode     *core.Mode // protection mode (nil = host Config.Mode)
}

// validate rejects the values no default stands for: negative counts,
// sizes, rates, times and seeds, an MTU too small to carry a packet, on
// the primary NIC or an extra one, and a serving fleet that cannot fill
// one cohort. Zero means "default" for every field checked here and a
// negative RxFlows means "no bulk flows", so neither is an error. This
// is the one range check every front end gets; each message names the
// field and the value.
func (c Config) validate() error {
	switch {
	case c.Cores < 0:
		return fmt.Errorf("host: Cores must be >= 0, got %d", c.Cores)
	case c.TxFlows < 0:
		return fmt.Errorf("host: TxFlows must be >= 0, got %d", c.TxFlows)
	case c.RingPackets < 0:
		return fmt.Errorf("host: RingPackets must be >= 0, got %d", c.RingPackets)
	case c.DescriptorPages < 0:
		return fmt.Errorf("host: DescriptorPages must be >= 0, got %d", c.DescriptorPages)
	case c.MTU != 0 && c.MTU < 64:
		return fmt.Errorf("host: MTU must be 0 (the default) or at least 64 bytes, got %d", c.MTU)
	case c.ATSEntries < 0:
		return fmt.Errorf("host: ATSEntries must be >= 0, got %d (0 disables the device TLB)", c.ATSEntries)
	case c.NICBufferBytes < 0:
		return fmt.Errorf("host: NICBufferBytes must be >= 0, got %d", c.NICBufferBytes)
	case c.Lm < 0:
		return fmt.Errorf("host: Lm must be >= 0, got %v", c.Lm)
	case c.MemHogGBps < 0:
		return fmt.Errorf("host: MemHogGBps must be >= 0, got %g", c.MemHogGBps)
	case c.MemHogStart < 0:
		return fmt.Errorf("host: MemHogStart must be >= 0, got %v", c.MemHogStart)
	case c.Seed < 0:
		return fmt.Errorf("host: Seed must be >= 0, got %d", c.Seed)
	case c.FaultSeed < 0:
		return fmt.Errorf("host: FaultSeed must be >= 0, got %d", c.FaultSeed)
	case c.Telemetry.SampleEvery < 0:
		return fmt.Errorf("host: Telemetry.SampleEvery must be >= 0, got %v", c.Telemetry.SampleEvery)
	case c.PTcacheL3 < 0:
		return fmt.Errorf("host: PTcacheL3 must be >= 0, got %d (0 keeps the default)", c.PTcacheL3)
	}
	// An extra NIC's zero fields inherit the host's values; a negative
	// RxFlows means "no bulk flows" there too.
	for i, n := range c.Topology.NICs {
		switch {
		case n.Cores < 0:
			return fmt.Errorf("host: Topology.NICs[%d].Cores must be >= 0, got %d", i, n.Cores)
		case n.TxFlows < 0:
			return fmt.Errorf("host: Topology.NICs[%d].TxFlows must be >= 0, got %d", i, n.TxFlows)
		case n.MTU != 0 && n.MTU < 64:
			return fmt.Errorf("host: Topology.NICs[%d].MTU must be 0 (the host's) or at least 64 bytes, got %d", i, n.MTU)
		}
	}
	for i, st := range c.Topology.Storage {
		if st.ReadGBps <= 0 {
			return fmt.Errorf("host: Topology.Storage[%d].ReadGBps must be > 0, got %g", i, st.ReadGBps)
		}
	}
	// The fleet's own knobs (churn, cohort >= 1) are cohort.Config's to
	// check; a bad conns count is reported before the cohort bound it
	// would otherwise trip.
	if s := c.Serve; s != nil {
		switch {
		case s.Conns < 1:
			return fmt.Errorf("host: Serve.Conns must be >= 1, got %d", s.Conns)
		case s.Cohort > s.Conns:
			return fmt.Errorf("host: Serve.Cohort must be <= Serve.Conns, got %d > %d", s.Cohort, s.Conns)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 5
	}
	if c.RxFlows < 0 {
		c.RxFlows = 0
	} else if c.RxFlows == 0 {
		c.RxFlows = c.Cores
	}
	if c.MTU <= 0 {
		c.MTU = 4096
	}
	if c.RingPackets <= 0 {
		c.RingPackets = 256
	}
	if c.DescriptorPages <= 0 {
		c.DescriptorPages = 64
	}
	if c.Lm == 0 {
		c.Lm = sim.Duration(model.LmNs)
	}
	if c.NICBufferBytes == 0 {
		c.NICBufferBytes = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Host is one simulated server (plus, in single-host runs, its abstract
// remote end).
//
// A Host is single-goroutine: construction and Run must happen on one
// goroutine, and everything it owns (engine, domains, wires, cores,
// counters, RNGs) is reachable only through it. Distinct Hosts share no
// mutable state — New takes no globals and registers nothing anywhere —
// which is what lets internal/runner execute many simulations
// concurrently with byte-identical results to a sequential run. Hosts on
// one shard of a Cluster deliberately share its engine and registry, all
// of them share the fabric, and the cluster's shard coordinator keeps
// each engine confined to one goroutine at a time.
type Host struct {
	cfg Config
	pl  placement
	eng *sim.Engine

	mmu *iommu.IOMMU // the one shared IOMMU every device translates through

	net     *netDev    // primary NIC (the measured datapath)
	nets    []*netDev  // every NIC, primary first
	stores  []*storage // storage controllers, in Topology order
	devices []Device   // nets, then stores

	cores []*Core

	msgs   *app // closed-loop request/response app (nil unless installed)
	serve  *app // open-loop serving fleet (nil unless Config.Serve)
	walker *pcie.Walker
	bus    *mem.Bus
	tele   *Telemetry
	ctl    *control.Controller // nil unless cfg.Control is set
	inj    *fault.Injector     // nil unless cfg.Faults is enabled
	aud    *fault.Auditor      // nil unless auditing

	started bool
	// samples is the timeline so far; lastTick is the snapshot the next
	// sample diffs against.
	samples  []Sample
	lastTick snapshot
	// housekeepingFn and sampleTickFn are housekeeping and sampleTick
	// bound once, so a tick schedules no fresh method value.
	housekeepingFn, sampleTickFn func()
}

// New builds the host per cfg, rejecting out-of-range values first.
// Additional cores are created on demand for Tx flows, app streams and
// co-tenant devices.
func New(cfg Config) (*Host, error) {
	return newHost(cfg, placement{reg: stats.NewRegistry()})
}

// newHost builds a host with the given placement: a cluster host runs
// on its shard's engine, a host placed without shards on a private one.
func newHost(cfg Config, pl placement) (*Host, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var eng *sim.Engine
	if pl.shards != nil {
		eng = pl.shards.Engine(pl.shard)
	} else {
		eng = sim.NewEngine(cfg.Seed)
	}
	h := &Host{cfg: cfg, pl: pl, eng: eng}
	h.housekeepingFn, h.sampleTickFn = h.housekeeping, h.sampleTick
	h.mmu = iommu.New(iommu.Config{L3Size: cfg.PTcacheL3})
	h.walker = pcie.NewWalker(h.eng, cfg.Lm)
	h.bus = mem.New(h.eng)
	h.walker.SetLatencyFactor(h.bus.LatencyFactor)
	// Fault layer before any device is built, so every domain and link
	// created below is wired into it.
	if cfg.Audit || cfg.Faults.Enabled() {
		h.aud = fault.NewAuditor(h.mmu)
	}
	if cfg.Faults.Enabled() {
		fseed := cfg.FaultSeed
		if fseed == 0 {
			fseed = cfg.Seed
		}
		h.inj = fault.NewInjector(h.eng, cfg.Faults, fseed)
		h.inj.SetAuditor(h.aud)
		h.inj.AttachBus(h.bus)
	}
	if cfg.MemHogGBps > 0 {
		if cfg.MemHogStart > 0 {
			h.eng.At(cfg.MemHogStart, func() { mem.NewHog(h.bus, cfg.MemHogGBps) })
		} else {
			mem.NewHog(h.bus, cfg.MemHogGBps)
		}
	}

	// The primary NIC: built from the flat Config fields, first so its
	// domain is the IOMMU's default domain 0.
	h.net = &netDev{
		name: "nic0",
		spec: NICSpec{
			Cores:   cfg.Cores,
			RxFlows: cfg.RxFlows,
			TxFlows: cfg.TxFlows,
			MTU:     cfg.MTU,
		},
		mode:      cfg.Mode,
		primary:   true,
		peerSlots: pl.peerSlots,
	}
	if err := h.net.attach(h); err != nil {
		return nil, err
	}
	h.nets = append(h.nets, h.net)

	// Additional NICs land on their own core ranges, above the slots the
	// primary datapath, app streams and storage devices use.
	cpuBase := cfg.Cores + cfg.TxFlows + 8 + len(cfg.Topology.Storage)
	for i, spec := range cfg.Topology.NICs {
		spec := spec.resolve(cfg)
		mode := cfg.Mode
		if spec.Mode != nil {
			mode = *spec.Mode
		}
		n := &netDev{
			name:    fmt.Sprintf("nic%d", i+1),
			spec:    spec,
			mode:    mode,
			cpuBase: cpuBase,
			seedOff: 10000 + 1000*int64(i),
		}
		if err := n.attach(h); err != nil {
			return nil, err
		}
		h.nets = append(h.nets, n)
		cpuBase += spec.Cores + spec.TxFlows + 8
	}
	for i, spec := range cfg.Topology.Storage {
		s, err := newStorage(h, i, spec)
		if err != nil {
			return nil, err
		}
		h.stores = append(h.stores, s)
	}
	for _, n := range h.nets {
		h.devices = append(h.devices, n)
	}
	for _, s := range h.stores {
		h.devices = append(h.devices, s)
	}
	h.tele = newTelemetry(h)
	// The control plane watches the telemetry spine just built, so it
	// constructs after it. Controllable targets are the NIC datapath
	// domains; each target's transition cost is charged to the core
	// owning that NIC's driver work, so a switch contends with the
	// traffic it reacts to.
	if cfg.Control != nil {
		targets := make([]control.Target, 0, len(h.nets))
		for _, n := range h.nets {
			n := n
			targets = append(targets, control.Target{
				Name:   n.name,
				Domain: n.dom,
				Exec: func(cost sim.Duration) {
					h.core(n.cpuBase).Do(func() sim.Duration { return cost }, nil)
				},
			})
		}
		ctl, err := control.New(h.eng, h.tele.reg, h.tele.prefix, *cfg.Control, targets)
		if err != nil {
			return nil, err
		}
		h.ctl = ctl
	}
	if cfg.Serve != nil {
		if _, err := h.installServing(*cfg.Serve); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Device is one DMA device on a host: a NIC datapath or a storage
// controller, each with its own protection domain over the host's one
// IOMMU. Per-device IOMMU counters are keyed by Domain().ID().
type Device interface {
	Name() string // "nic0", "storage1"
	Kind() string // "nic", "storage"
	Domain() *core.Domain
	Stats() DeviceStats
}

// DeviceStats is a device's cumulative progress: completed DMA
// operations (packets delivered, blocks read) and the payload bytes
// they moved. Per-device translation behaviour (misses, walk reads,
// invalidations) comes from the shared IOMMU's per-domain counters.
type DeviceStats struct {
	Ops   int64 // completed DMA operations
	Bytes int64 // payload bytes moved
}

// Devices returns the host's devices: its NICs, primary first, then its
// storage controllers.
func (h *Host) Devices() []Device { return h.devices }

// Engine returns the host's event engine, for callers that advance it
// themselves (simbench runs it in slices).
func (h *Host) Engine() *sim.Engine { return h.eng }

// newLink returns a PCIe link with the host's fitted latencies, attached
// to the shared walkers.
func (h *Host) newLink() *pcie.Link {
	l := pcie.New(h.eng, l0, h.cfg.Lm, pcieGbps)
	l.AttachWalker(h.walker)
	h.inj.AttachLink(l) // nil-safe: flap target when a plan is active
	return l
}

// newDomain returns a protection domain over the shared IOMMU, seeded
// from the host's seed plus seedOffset, so distinct devices get distinct
// but deterministic free-pool shuffles.
func (h *Host) newDomain(cfg core.Config, seedOffset int64) (*core.Domain, error) {
	cfg.SharedIOMMU = h.mmu
	cfg.Seed = h.cfg.Seed + seedOffset
	cfg.Faults = h.inj
	return core.NewDomain(cfg)
}

// Domain exposes the primary NIC's protection domain.
func (h *Host) Domain() *core.Domain { return h.net.dom }

func (h *Host) core(cpu int) *Core {
	for len(h.cores) <= cpu {
		h.cores = append(h.cores, NewCore(h.eng))
	}
	return h.cores[cpu]
}

// irqCost returns the interrupt cost for a delivery on cpu: charged only
// when the core is idle (a NAPI poll cycle starts); deliveries landing on
// a busy core ride the existing poll batch.
func (h *Host) irqCost(cpu int) sim.Duration {
	if h.core(cpu).QueueLen() == 0 && !h.core(cpu).Busy() {
		return irqCPU
	}
	return 0
}

// Start launches the configured workloads and the housekeeping timers.
// Idempotent: only the first call has effect (Run calls it internally).
// Ordering is load-bearing for reproducibility: NIC flows (primary
// first), then the request/response apps, then the storage devices.
func (h *Host) Start() {
	if h.started {
		return
	}
	h.started = true
	for _, n := range h.nets {
		n.start()
	}
	h.msgs.start()
	h.serve.start()
	for _, s := range h.stores {
		s.start()
	}
	// Periodic fault disturbances start after the workloads so their
	// events interleave behind same-timestamp workload events.
	h.inj.Start()
	// The controller ticks after the fault layer so its first
	// evaluation sees whatever the injector's same-timestamp
	// disturbances already did.
	if h.ctl != nil {
		h.ctl.Start()
	}
	h.eng.After(200*sim.Microsecond, h.housekeepingFn)
	// The timeline ticks last: its read-only ticks interleave after the
	// workload events already scheduled at each timestamp.
	if every := h.cfg.Telemetry.SampleEvery; every > 0 {
		h.eng.After(every, h.sampleTickFn)
	}
}

// housekeeping fires RTO checks and delayed-ACK flushes.
func (h *Host) housekeeping() {
	now := h.eng.Now()
	for _, n := range h.nets {
		n.flowHousekeeping(now)
	}
	h.msgs.housekeeping(now)
	h.serve.housekeeping(now)
	for _, n := range h.nets {
		n.deferredFlush(now)
	}
	h.eng.After(200*sim.Microsecond, h.housekeepingFn)
}

// meanCwnd is the mean congestion window of the primary NIC's bulk Rx
// flows that abstract remote sources drive, 0 without any.
func (h *Host) meanCwnd() float64 {
	var n, cwnd float64
	for _, f := range h.net.flows {
		if f.src != nil {
			continue
		}
		n++
		cwnd += f.snd.Cwnd()
	}
	if n == 0 {
		return 0
	}
	return cwnd / n
}
