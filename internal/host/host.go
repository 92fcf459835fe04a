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
// Cluster (cluster.go) instead builds N full Hosts on one shared event
// engine, every one paying its own CPU, IOMMU and PCIe costs, and
// routes their peer flows through fabric.Switch ports. Every bulk
// transfer in either topology is one flow type (flow.go): a DCTCP
// sender at the source and a receiver at the sink, each end a detailed
// NIC or the abstract remote, with the transport op picking the
// two-sided stack datapath or the one-sided NIC datapath.
//
// Each host owns its own IOMMU; DMA devices (the NIC datapath in
// netdev.go, device.Storage, anything else implementing device.Device)
// attach to it through AttachDevice or the Topology config, each with
// its own protection domain over that host's translation hardware.
package host

import (
	"fmt"

	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/fault"
	"fastsafe/internal/iommu"
	"fastsafe/internal/mem"
	"fastsafe/internal/nic"
	"fastsafe/internal/pcie"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// Config describes one experiment's host setup. Zero fields take the
// defaults of the paper's testbed (§2.2): 100Gbps NIC, 128Gbps PCIe 3.0,
// 4KB MTU, 256-packet rings, 64-page descriptors, five cores.
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
	// the invalidation queue (at CostModel.ATCInvRequest extra per
	// request).
	ATSEntries int

	LinkGbps  float64      // NIC line rate (default 100)
	PCIeGbps  float64      // PCIe serialisation cap (default 128)
	L0        sim.Duration // fitted DMA base latency (default 65ns)
	Lm        sim.Duration // fitted page-table read latency (default 197ns)
	PropDelay sim.Duration // one-way propagation (default 2us)

	NICBufferBytes int // NIC input buffer (default 1MB)
	ECNKBytes      int // DCTCP marking threshold (default 150KB)

	StackCost sim.Duration // per-data-packet network-stack CPU (default 600ns)
	IRQCost   sim.Duration // per-interrupt CPU cost charged when a delivery
	// finds its core idle (NAPI batching amortises it under load; default 2us)
	DelAck sim.Duration // delayed-ACK flush timeout (default 30us); without
	// it, flows whose window is smaller than the ACK coalescing factor
	// stall until the next housekeeping tick
	AckTxCost     sim.Duration // CPU to build+send an ACK (default 250ns)
	AckRxCost     sim.Duration // CPU to process a received ACK (default 150ns)
	RingCPUFactor float64      // stack-cost inflation per log2(ring/256), modelling
	// the prefetcher-efficiency loss at large rings (§4.4; default 0.55)

	// Memory system (§2.2: two DDR4 channels, 46.9GB/s, DDIO disabled).
	MemHogGBps float64 // co-tenant memory bandwidth antagonist (0 = none)
	// MemHogStart delays the antagonist's onset to a virtual time (0 =
	// from construction), letting timeline experiments watch the
	// transition into contention mid-run.
	MemHogStart sim.Duration
	DDIO        bool // DMA lands in LLC instead of DRAM (paper default: off)

	// Topology attaches co-tenant DMA devices beyond the primary NIC,
	// all sharing the host's IOMMU.
	Topology Topology

	// Serve, when non-nil, installs the open-loop serving-fleet workload
	// (serving.go): Poisson arrivals, heavy-tailed request/response
	// sizes, connection churn, and cohort aggregation. In a cluster every
	// host runs its own fleet (seeded per host), colocated with whatever
	// peer traffic the cluster pattern generates.
	Serve *ServeConfig

	Transport transport.Params
	IOMMU     iommu.Config
	Costs     core.CostModel

	// Telemetry configures the observation layer: the virtual-time
	// sampler and the PTcache-L3 locality trace. All of it is strictly
	// read-only over simulation state, so enabling it never changes
	// simulated behaviour.
	Telemetry TelemetryConfig

	// Control, when non-nil, installs the adaptive protection control
	// plane (internal/control): a deterministic rule engine ticking on
	// the virtual clock that watches the telemetry registry and retunes
	// each NIC domain's runtime knobs through the SetKnobs transition
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

	// Engine, when non-nil, attaches the host to a shared discrete-event
	// engine instead of creating a private one — this is how a Cluster
	// gives N hosts one clock. nil (the default) keeps the host fully
	// self-contained, byte-identical to the pre-fabric behaviour.
	Engine *sim.Engine
	// HostID names this host within a cluster; transport endpoints bind
	// to it. 0 (the default) for single-host runs.
	HostID int
	// PeerSlots provisions Tx cores on the primary NIC for cluster peer
	// flows (see NICSpec.PeerSlots). 0 for single-host runs.
	PeerSlots int
}

// Topology describes the DMA devices attached to the host beyond the
// primary NIC (which the flat Config fields configure). Every device
// gets its own protection domain over the one shared IOMMU.
type Topology struct {
	NICs    []NICSpec     // additional NIC datapaths, each with its own wire pair
	Storage []StorageSpec // NVMe-style storage controllers
}

// StorageSpec configures one storage device in a Topology.
type StorageSpec struct {
	ReadGBps   float64    // target block-read bandwidth (decimal GB/s)
	BlockBytes int        // per-DMA block size (default 128KB)
	Mode       *core.Mode // protection mode (nil = host Config.Mode)
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
	if c.ATSEntries < 0 {
		c.ATSEntries = 0
	}
	if c.LinkGbps == 0 {
		c.LinkGbps = 100
	}
	if c.PCIeGbps == 0 {
		c.PCIeGbps = 128
	}
	if c.L0 == 0 {
		c.L0 = 65
	}
	if c.Lm == 0 {
		c.Lm = 197
	}
	if c.PropDelay == 0 {
		c.PropDelay = 2 * sim.Microsecond
	}
	if c.NICBufferBytes == 0 {
		c.NICBufferBytes = 1 << 20
	}
	if c.ECNKBytes == 0 {
		c.ECNKBytes = 150 << 10
	}
	if c.StackCost == 0 {
		c.StackCost = 600
	}
	if c.DelAck == 0 {
		c.DelAck = 30 * sim.Microsecond
	}
	if c.IRQCost == 0 {
		c.IRQCost = 2 * sim.Microsecond
	}
	if c.AckTxCost == 0 {
		c.AckTxCost = 250
	}
	if c.AckRxCost == 0 {
		c.AckRxCost = 150
	}
	if c.RingCPUFactor == 0 {
		c.RingCPUFactor = 0.55
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
// concurrently with byte-identical results to a sequential run. Hosts in
// a Cluster deliberately share the cluster's engine, registry and
// fabric, and the cluster as a whole stays single-goroutine.
type Host struct {
	cfg Config
	eng *sim.Engine

	mmu *iommu.IOMMU // the one shared IOMMU every device translates through

	net     *netDev         // primary NIC (the measured datapath)
	nets    []*netDev       // every NIC, primary first
	devices []device.Device // all attached devices in attach order

	cores []*Core

	msgs   *msgApp     // request/response machinery (nil unless installed)
	serve  *servingApp // open-loop serving fleet (nil unless Config.Serve)
	walker *pcie.Walker
	bus    *mem.Bus
	tele   *Telemetry
	ctl    *control.Controller // nil unless cfg.Control is set
	inj    *fault.Injector     // nil unless cfg.Faults is enabled
	aud    *fault.Auditor      // nil unless auditing

	storageCount int // storage devices attached so far (cpu/seed slots)
	started      bool

	// shardPost, when set by a sharded Cluster, routes a mutation of
	// another host's state to that host's engine shard (running it inline
	// when both hosts share a shard). Nil for standalone hosts and
	// single-shard clusters, where cross-host writes are ordinary
	// same-engine calls.
	shardPost func(dst *Host, fn func())
}

// New builds the host per cfg. Additional cores are created on demand for
// Tx flows, app streams and co-tenant devices.
func New(cfg Config) (*Host, error) {
	cfg = cfg.withDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine(cfg.Seed)
	}
	h := &Host{cfg: cfg, eng: eng}
	h.mmu = iommu.New(cfg.IOMMU)
	h.walker = pcie.NewWalker(h.eng, cfg.Lm)
	h.bus = mem.New(h.eng, mem.Config{})
	h.walker.SetLatencyFactor(h.bus.LatencyFactor)
	// Fault layer before any device attaches, so every domain and link
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

	// The primary NIC: built from the flat Config fields, attached first
	// so its domain is the IOMMU's default domain 0.
	primary := &netDev{
		name: "nic0",
		spec: NICSpec{
			Cores:       cfg.Cores,
			RxFlows:     cfg.RxFlows,
			TxFlows:     cfg.TxFlows,
			MTU:         cfg.MTU,
			RingPackets: cfg.RingPackets,
			LinkGbps:    cfg.LinkGbps,
			PeerSlots:   cfg.PeerSlots,
		},
		mode:    cfg.Mode,
		primary: true,
	}
	if err := h.AttachDevice(primary); err != nil {
		return nil, err
	}

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
		if err := h.AttachDevice(n); err != nil {
			return nil, err
		}
		cpuBase += spec.Cores + spec.TxFlows + 8
	}
	for _, spec := range cfg.Topology.Storage {
		if _, err := h.addStorage(spec); err != nil {
			return nil, err
		}
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
		ctl, err := control.New(h.eng, h.tele.reg, h.cfg.Telemetry.Prefix, *cfg.Control, targets)
		if err != nil {
			return nil, err
		}
		h.ctl = ctl
	}
	if cfg.Serve != nil {
		if _, err := h.InstallServing(*cfg.Serve); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// AttachDevice attaches a DMA device sharing the host's IOMMU. Call
// before Start; devices appear in per-device results in attach order.
func (h *Host) AttachDevice(d device.Device) error {
	if h.started {
		return fmt.Errorf("host: AttachDevice(%s) after Start", d.Name())
	}
	if err := d.Attach(h); err != nil {
		return err
	}
	h.devices = append(h.devices, d)
	if n, ok := d.(*netDev); ok {
		if h.net == nil {
			h.net = n
		}
		h.nets = append(h.nets, n)
	}
	// Devices attached during New are registered when the telemetry spine
	// is built; later attachments (InstallStorage, direct AttachDevice)
	// register here.
	if h.tele != nil {
		h.tele.addDevice(d)
	}
	return nil
}

// Devices returns the attached devices in attach order (primary NIC
// first).
func (h *Host) Devices() []device.Device { return h.devices }

// Engine implements device.Host (examples also drive it directly).
func (h *Host) Engine() *sim.Engine { return h.eng }

// SharedIOMMU implements device.Host.
func (h *Host) SharedIOMMU() *iommu.IOMMU { return h.mmu }

// NewLink implements device.Host: a PCIe link with the host's fitted
// latencies, attached to the shared walkers.
func (h *Host) NewLink() *pcie.Link {
	l := pcie.New(h.eng, h.cfg.L0, h.cfg.Lm, h.cfg.PCIeGbps)
	l.AttachWalker(h.walker)
	h.inj.AttachLink(l) // nil-safe: flap target when a plan is active
	return l
}

// NewDomain implements device.Host: a protection domain over the shared
// IOMMU, seeded deterministically per device.
func (h *Host) NewDomain(cfg core.Config, seedOffset int64) (*core.Domain, error) {
	cfg.SharedIOMMU = h.mmu
	cfg.Seed = h.cfg.Seed + seedOffset
	cfg.Faults = h.inj
	return core.NewDomain(cfg)
}

// Faults implements device.Host: the host's injector, nil without a
// plan. Safety auditing is exposed through Results.Safety.
func (h *Host) Faults() *fault.Injector { return h.inj }

// Auditor exposes the safety auditor (nil unless auditing).
func (h *Host) Auditor() *fault.Auditor { return h.aud }

// Exec implements device.Host: schedule driver work on host core cpu.
func (h *Host) Exec(cpu int, work func() sim.Duration, done func()) {
	h.core(cpu).Do(work, done)
}

// Domain exposes the primary NIC's protection domain.
func (h *Host) Domain() *core.Domain { return h.net.dom }

// NIC exposes the primary NIC's device model.
func (h *Host) NIC() *nic.NIC { return h.net.dev }

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
		return h.cfg.IRQCost
	}
	return 0
}

// Start launches the configured workloads and the housekeeping timers.
// Idempotent: only the first call has effect (Run calls it internally).
// Ordering is load-bearing for reproducibility: NIC flows (primary
// first), then the message app, then the non-NIC devices — the exact
// sequence the pre-device-layer host used.
func (h *Host) Start() {
	if h.started {
		return
	}
	h.started = true
	for _, n := range h.nets {
		n.Start()
	}
	if h.msgs != nil {
		h.msgs.start()
	}
	if h.serve != nil {
		h.serve.start()
	}
	for _, d := range h.devices {
		if _, ok := d.(*netDev); ok {
			continue
		}
		d.Start()
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
	h.eng.After(200*sim.Microsecond, h.housekeeping)
	// The sampler starts last: its read-only ticks interleave after the
	// workload events already scheduled at each timestamp.
	if h.tele != nil && h.tele.sampler != nil {
		h.tele.sampler.Start()
	}
}

// housekeeping fires RTO checks and delayed-ACK flushes.
func (h *Host) housekeeping() {
	now := h.eng.Now()
	for _, n := range h.nets {
		n.flowHousekeeping(now)
	}
	if h.msgs != nil {
		h.msgs.housekeeping(now)
	}
	if h.serve != nil {
		h.serve.housekeeping(now)
	}
	for _, n := range h.nets {
		n.deferredFlush(now)
	}
	h.eng.After(200*sim.Microsecond, h.housekeeping)
}

// DebugFlows reports mean cwnd, mean alpha, mean inflight and total
// timeouts/retransmits across the primary NIC's bulk Rx flows — those
// the abstract remote sources (diagnostics).
func (h *Host) DebugFlows() (cwnd, alpha, inflight float64, timeouts, rtx int64) {
	var n float64
	for _, f := range h.net.flows {
		if f.src != nil {
			continue
		}
		n++
		cwnd += f.snd.Cwnd()
		alpha += f.snd.Alpha()
		inflight += float64(f.snd.Inflight())
		timeouts += f.snd.Stats().Timeouts
		rtx += f.snd.Stats().Retransmits
	}
	if n == 0 {
		return 0, 0, 0, 0, 0
	}
	return cwnd / n, alpha / n, inflight / n, timeouts, rtx
}
