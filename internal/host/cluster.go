package host

import (
	"fmt"
	"strings"

	"fastsafe/internal/fabric"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

// Cluster builds N full hosts and routes their bulk flows through a
// switched fabric. Every host is the same detailed machine the
// single-host experiments measure — own IOMMU, IOVA allocators, page
// tables, PCIe links, per-core CPU queues — so protection costs are paid
// at both ends of every flow, and congestion forms where it does in a
// real rack: at the receiver's switch port under incast.
//
// With Shards == 1 (the default) the whole cluster shares one event
// engine and a Cluster is single-goroutine like a Host. With Shards > 1
// the hosts are partitioned across engine shards run as a conservative
// parallel DES (sim.Shards): each shard's event loop runs on its own
// goroutine inside synchronized lookahead windows, cross-host packets
// travel as timestamped cross-shard messages, and results remain
// bit-deterministic for a given seed at any GOMAXPROCS. Distinct
// Clusters still share no state, so internal/runner can execute many
// concurrently either way.

// TrafficPattern names how cluster hosts pair up for bulk flows.
type TrafficPattern string

const (
	// Incast points every other host's flows at host 0 — the paper's
	// many-to-one congestion scenario, deepest queue at one port.
	Incast TrafficPattern = "incast"
	// AllToAll runs a flow for every ordered host pair.
	AllToAll TrafficPattern = "alltoall"
	// Pairs runs disjoint one-way flows host 2k -> host 2k+1.
	Pairs TrafficPattern = "pairs"
)

// ParseTraffic converts a string to a TrafficPattern with a descriptive
// error listing the valid names.
func ParseTraffic(s string) (TrafficPattern, error) {
	switch TrafficPattern(s) {
	case Incast, AllToAll, Pairs:
		return TrafficPattern(s), nil
	}
	return "", fmt.Errorf("host: unknown traffic pattern %q (valid: incast, alltoall, pairs)", s)
}

// ClusterConfig describes an N-host simulation.
type ClusterConfig struct {
	Hosts        int            // number of hosts (>= 2)
	Traffic      TrafficPattern // flow pattern (default Incast)
	FlowsPerPair int            // DCTCP flows per (src, dst) pair (default 1)

	// Op selects the verb every flow uses: SendRecv (the zero value)
	// runs the two-sided peer flows; Read/Write run one-sided RDMA flows
	// through the remote NIC's registered memory window instead — the
	// remote CPU leaves the per-packet path entirely (see flow.go).
	Op transport.Op

	// Shards partitions the hosts across that many engine shards run
	// under conservative parallel DES (sim.Shards), with lookahead equal
	// to the fabric's per-hop propagation delay. 0 or 1 — the default —
	// keeps every host on one shared engine, the exact legacy code path.
	// Values above Hosts are clamped to Hosts (one host per shard).
	// Results are deterministic for a given seed at any shard count and
	// independent of GOMAXPROCS.
	Shards int

	// Host configures every host identically (flow counts are overridden:
	// cluster hosts run peer flows instead of abstract-remote bulk flows).
	Host Config

	// Fabric configures the switch; Fabric.PortGbps 0 inherits the host
	// NIC line rate.
	Fabric fabric.Config
}

// clusterSeedStride separates per-host seed spaces: far larger than any
// per-device seed offset a single host hands out.
const clusterSeedStride = 1 << 20

// maxPeerSlots caps the Tx cores provisioned per host for peer flows;
// beyond this, flows share slots round-robin like Rx flows share cores.
const maxPeerSlots = 8

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Traffic == "" {
		c.Traffic = Incast
	}
	if c.FlowsPerPair <= 0 {
		c.FlowsPerPair = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > c.Hosts {
		c.Shards = c.Hosts
	}
	return c
}

// pairs expands the traffic pattern into ordered (src, dst) host pairs.
func (c ClusterConfig) pairs() [][2]int {
	var ps [][2]int
	switch c.Traffic {
	case AllToAll:
		for i := 0; i < c.Hosts; i++ {
			for j := 0; j < c.Hosts; j++ {
				if i != j {
					ps = append(ps, [2]int{i, j})
				}
			}
		}
	case Pairs:
		for i := 0; i+1 < c.Hosts; i += 2 {
			ps = append(ps, [2]int{i, i + 1})
		}
	default: // Incast
		for i := 1; i < c.Hosts; i++ {
			ps = append(ps, [2]int{i, 0})
		}
	}
	return ps
}

// Cluster is the N-host simulation.
type Cluster struct {
	cfg   ClusterConfig
	eng   *sim.Engine // shared engine (Shards==1) or shard 0's engine
	sw    *fabric.Switch
	hosts []*Host
	reg   *stats.Registry

	// Sharded-mode state, nil/empty when Shards == 1.
	shards  *sim.Shards
	shardOf []int // host ID -> owning shard
}

// clusterRouter carries cross-shard fabric hops: port i belongs to host
// i's shard, the core link to shard 0.
type clusterRouter struct{ c *Cluster }

func (r clusterRouter) shardOfPort(p int) int {
	if p == fabric.CorePort {
		return 0
	}
	return r.c.shardOf[p]
}

func (r clusterRouter) PostPort(src, dst int, gen, at sim.Time, fn func()) {
	r.c.shards.Post(r.shardOfPort(src), r.c.shardOf[dst], gen, at, fn)
}

func (r clusterRouter) PostCore(src int, gen, at sim.Time, fn func()) {
	r.c.shards.Post(r.shardOfPort(src), 0, gen, at, fn)
}

// NewCluster builds the hosts, the switch, and the peer flows the
// traffic pattern calls for.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("host: a cluster needs at least 2 hosts, got %d", cfg.Hosts)
	}
	if _, err := ParseTraffic(string(cfg.Traffic)); err != nil {
		return nil, err
	}
	base := cfg.Host.withDefaults()
	c := &Cluster{cfg: cfg}

	pairs := cfg.pairs()
	outgoing := make([]int, cfg.Hosts) // peer flows originating per host
	for _, p := range pairs {
		outgoing[p[0]] += cfg.FlowsPerPair
	}

	fc := cfg.Fabric
	if fc.PortGbps == 0 {
		fc.PortGbps = base.LinkGbps
	}
	if fc.ECNK == 0 {
		fc.ECNK = base.ECNKBytes
	}
	if fc.Prop == 0 {
		fc.Prop = base.PropDelay
	}

	// Engine + registry wiring: one of each shared by everything at
	// Shards==1 (the legacy path, byte-identical behaviour), or one per
	// shard with hosts assigned contiguously and registries merged at the
	// end. Per-shard registries keep every instrument engine-confined
	// during parallel rounds; names are disjoint (hostN.*, fabric.portN.*,
	// fabric.core.*) so the merge is a pure adoption.
	var (
		regs  []*stats.Registry
		engOf func(i int) *sim.Engine
	)
	if cfg.Shards == 1 {
		eng := sim.NewEngine(base.Seed)
		reg := stats.NewRegistry()
		c.eng, c.reg = eng, reg
		regs = []*stats.Registry{reg}
		engOf = func(int) *sim.Engine { return eng }
		sw, err := fabric.NewSwitch(eng, cfg.Hosts, fc)
		if err != nil {
			return nil, err
		}
		c.sw = sw
	} else {
		la := fc.PerHopProp()
		if la <= 0 {
			return nil, fmt.Errorf("host: sharded cluster needs positive fabric propagation, got per-hop %v", la)
		}
		c.shards = sim.NewShards(cfg.Shards, base.Seed, la)
		c.eng = c.shards.Engine(0)
		c.shardOf = make([]int, cfg.Hosts)
		for i := range c.shardOf {
			c.shardOf[i] = i * cfg.Shards / cfg.Hosts
		}
		regs = make([]*stats.Registry, cfg.Shards)
		for i := range regs {
			regs[i] = stats.NewRegistry()
		}
		engOf = func(i int) *sim.Engine { return c.shards.Engine(c.shardOf[i]) }
		sw, err := fabric.NewShardedSwitch(cfg.Hosts, fc,
			func(port int) *sim.Engine { return engOf(port) },
			c.shards.Engine(0), clusterRouter{c})
		if err != nil {
			return nil, err
		}
		c.sw = sw
	}
	sw := c.sw

	for i := 0; i < cfg.Hosts; i++ {
		hc := base
		hc.Engine = engOf(i)
		hc.HostID = i
		hc.Seed = base.Seed + int64(i)*clusterSeedStride
		// Cluster hosts run peer flows only: no abstract-remote bulk flows.
		hc.RxFlows = -1
		hc.TxFlows = 0
		hc.PeerSlots = outgoing[i]
		if hc.PeerSlots > maxPeerSlots {
			hc.PeerSlots = maxPeerSlots
		}
		hc.Telemetry.Registry = regs[c.shardIdx(i)]
		hc.Telemetry.Prefix = fmt.Sprintf("host%d.", i)
		h, err := New(hc)
		if err != nil {
			return nil, fmt.Errorf("host: cluster host %d: %w", i, err)
		}
		if c.shards != nil {
			id := i
			h.shardPost = func(dst *Host, fn func()) {
				s, d := c.shardOf[id], c.shardOf[dst.cfg.HostID]
				if s == d {
					fn()
					return
				}
				now := c.shards.Engine(s).Now()
				c.shards.Post(s, d, now, now, fn)
			}
		}
		c.hosts = append(c.hosts, h)
	}

	out := make([]int, cfg.Hosts) // outgoing flows placed so far
	in := make([]int, cfg.Hosts)  // incoming flows placed so far
	flowID := 0
	for _, p := range pairs {
		src, dst := c.hosts[p[0]], c.hosts[p[1]]
		for k := 0; k < cfg.FlowsPerPair; k++ {
			srcCPU := src.cfg.Cores + src.cfg.TxFlows + out[p[0]]%src.cfg.PeerSlots
			dstCPU := in[p[1]] % dst.cfg.Cores
			src.connect(dst, sw.Port(p[0]), sw.Port(p[1]), cfg.Op,
				flowID, srcCPU, dstCPU, sim.Time(flowID)*sim.Microsecond)
			out[p[0]]++
			in[p[1]]++
			flowID++
		}
	}
	if cfg.Shards == 1 {
		sw.RegisterProbes(c.reg, "fabric.")
	} else {
		for i := 0; i < cfg.Hosts; i++ {
			sw.RegisterPortProbes(regs[c.shardIdx(i)], "fabric.", i)
		}
		sw.RegisterCoreProbes(regs[0], "fabric.")
		// Merged read-only view across all shards; safe to read at
		// barriers (between Run windows) and after the run.
		c.reg = stats.NewRegistry()
		for _, r := range regs {
			c.reg.Adopt(r)
		}
	}
	return c, nil
}

// shardIdx returns the shard owning host i (0 when unsharded).
func (c *Cluster) shardIdx(i int) int {
	if c.shardOf == nil {
		return 0
	}
	return c.shardOf[i]
}

// Shards returns the number of engine shards the cluster runs on.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Rounds returns the synchronization rounds the shard coordinator has
// executed (0 when unsharded).
func (c *Cluster) Rounds() uint64 {
	if c.shards == nil {
		return 0
	}
	return c.shards.Rounds()
}

// Engine returns the shared event engine (shard 0's when sharded).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Hosts returns the cluster's hosts in ID order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Switch returns the fabric.
func (c *Cluster) Switch() *fabric.Switch { return c.sw }

// Registry returns the shared registry: every host's instruments under
// its "hostN." prefix plus the fabric's under "fabric.".
func (c *Cluster) Registry() *stats.Registry { return c.reg }

// ClusterResults is the measurement of one cluster window: per-host
// Results (index = host ID) plus cluster-wide aggregates.
type ClusterResults struct {
	Mode    string
	Hosts   []Results
	Measure sim.Duration

	AggRxGbps float64 // summed per-host Rx goodput
	AggTxGbps float64 // summed per-host Tx goodput
}

// Violations sums every host's audited translation-safety violations
// (stale-window uses + post-unmap reads); 0 when no host audited.
func (r ClusterResults) Violations() int64 {
	var n int64
	for _, h := range r.Hosts {
		if h.Safety != nil {
			n += h.Safety.Violations()
		}
	}
	return n
}

func (r ClusterResults) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s hosts=%d agg_rx=%7.1fGbps agg_tx=%7.1fGbps stale=%d",
		r.Mode, len(r.Hosts), r.AggRxGbps, r.AggTxGbps, r.Violations())
	for i, h := range r.Hosts {
		fmt.Fprintf(&b, "\n  host%d %s", i, h.String())
	}
	return b.String()
}

// Start launches every host (idempotent; Run calls it internally).
// Hosts start in ID order so same-timestamp events interleave
// deterministically.
func (c *Cluster) Start() {
	for _, h := range c.hosts {
		h.Start()
	}
}

// run advances the whole cluster to deadline: the shared engine when
// unsharded, the conservative shard coordinator otherwise. Either way all
// clocks align to deadline on return, so the snapshots Run takes observe
// every shard at the same virtual instant.
func (c *Cluster) run(deadline sim.Duration) {
	if c.shards != nil {
		c.shards.Run(deadline)
		return
	}
	c.eng.Run(deadline)
}

// Run starts the workloads, runs a warmup window, then measures for the
// given duration and returns per-host and aggregate results.
func (c *Cluster) Run(warmup, measure sim.Duration) ClusterResults {
	c.Start()
	c.run(warmup)
	befores := make([]snapshot, len(c.hosts))
	for i, h := range c.hosts {
		befores[i] = h.beginMeasure()
	}
	c.run(warmup + measure)
	r := ClusterResults{Mode: c.cfg.Host.Mode.String(), Measure: measure}
	for i, h := range c.hosts {
		hr := h.results(befores[i], h.snap())
		r.Hosts = append(r.Hosts, hr)
		r.AggRxGbps += hr.RxGbps
		r.AggTxGbps += hr.TxGbps
	}
	return r
}
