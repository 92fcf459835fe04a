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
// The hosts are partitioned across the engine shards of a conservative
// parallel DES (sim.Shards). With one shard (the default) the shard's
// engine runs straight to each deadline and a Cluster is single-goroutine
// like a Host. With more, cross-host packets travel as timestamped
// cross-shard messages delivered at the barrier of each synchronized
// lookahead window. A window in which every ready shard did little work
// in its previous one (most windows of a small cluster or of an incast)
// runs every ready shard on the goroutine calling Run; a busier one runs
// one ready shard there and hands every other ready shard to that
// shard's worker goroutine (sim.Shards counts those windows). The choice
// reads only event counts, so results remain bit-deterministic for a
// given seed at any GOMAXPROCS. Each window Run advances (warm-up, then
// measurement) starts the workers and waits for them to exit, so an idle
// Cluster holds no goroutine, and a panic on any shard surfaces from Run
// on the calling goroutine. Distinct Clusters still share no state, so
// internal/runner can execute many concurrently either way.

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
	// keeps every host on one shard, whose engine runs with no rounds.
	// Values above Hosts are clamped to Hosts (one host per shard).
	// Shards run in parallel only in rounds busy enough to repay waking
	// a worker, so a small cluster gains little from more shards; pairs
	// traffic at 64 hosts and more is where they pay. Results are
	// deterministic for a given seed at any shard count and independent
	// of GOMAXPROCS.
	Shards int

	// Host configures every host identically (flow counts are overridden:
	// cluster hosts run peer flows instead of abstract-remote bulk flows).
	Host Config

	// Fabric configures the switch's line rate (default the NICs' 100
	// Gbps) and core. Its 150 KB ECN threshold and 2us propagation match
	// the testbed's hosts.
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
	cfg     ClusterConfig
	hosts   []*Host
	regs    []*stats.Registry // one per shard
	shards  *sim.Shards
	shardOf []int // host ID -> owning shard
}

// validate rejects what no default stands for, before withDefaults
// clamps it: the cluster-level counts and the fabric port rate here, the
// host values through Config.validate. The fabric checks the rest of its
// own config.
func (c ClusterConfig) validate() error {
	switch {
	case c.Hosts < 2:
		return fmt.Errorf("host: Hosts must be >= 2, got %d", c.Hosts)
	case c.FlowsPerPair < 0:
		return fmt.Errorf("host: FlowsPerPair must be >= 0, got %d", c.FlowsPerPair)
	case c.Shards < 0:
		return fmt.Errorf("host: Shards must be >= 0, got %d", c.Shards)
	case c.Fabric.PortGbps < 0:
		return fmt.Errorf("host: Fabric.PortGbps must be >= 0, got %g", c.Fabric.PortGbps)
	}
	return c.Host.validate()
}

// NewCluster builds the hosts, the switch, and the peer flows the
// traffic pattern calls for.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
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

	// One engine and one registry per shard, hosts assigned contiguously.
	// Per-shard registries keep every instrument engine-confined during
	// parallel rounds; names are disjoint (hostN.*, fabric.portN.*,
	// fabric.core.*), so Registry merges them by pure adoption. The
	// lookahead is the per-hop propagation.
	c.shards = sim.NewShards(cfg.Shards, base.Seed, cfg.Fabric.PerHopProp())
	c.shardOf = make([]int, cfg.Hosts)
	for i := range c.shardOf {
		c.shardOf[i] = i * cfg.Shards / cfg.Hosts
	}
	c.regs = make([]*stats.Registry, cfg.Shards)
	for i := range c.regs {
		c.regs[i] = stats.NewRegistry()
	}
	// Port i belongs to host i's shard, the core link to shard 0.
	sw, err := fabric.NewShardedSwitch(c.shards, cfg.Hosts, cfg.Fabric, func(i int) int { return c.shardOf[i] })
	if err != nil {
		return nil, err
	}
	credits := sim.NewMail(c.shards, applyCredit)

	for i := 0; i < cfg.Hosts; i++ {
		hc := base
		hc.Seed = base.Seed + int64(i)*clusterSeedStride
		// Cluster hosts run peer flows only: no abstract-remote bulk flows.
		hc.RxFlows = -1
		hc.TxFlows = 0
		h, err := newHost(hc, placement{
			shards:    c.shards,
			credits:   credits,
			shard:     c.shardOf[i],
			reg:       c.regs[c.shardOf[i]],
			prefix:    fmt.Sprintf("host%d.", i),
			peerSlots: min(outgoing[i], maxPeerSlots),
		})
		if err != nil {
			return nil, fmt.Errorf("host: cluster host %d: %w", i, err)
		}
		c.hosts = append(c.hosts, h)
	}

	out := make([]int, cfg.Hosts) // outgoing flows placed so far
	in := make([]int, cfg.Hosts)  // incoming flows placed so far
	flowID := 0
	for _, p := range pairs {
		src, dst := c.hosts[p[0]], c.hosts[p[1]]
		for k := 0; k < cfg.FlowsPerPair; k++ {
			srcCPU := src.cfg.Cores + src.cfg.TxFlows + out[p[0]]%src.pl.peerSlots
			dstCPU := in[p[1]] % dst.cfg.Cores
			src.connect(dst, sw.Port(p[0]), sw.Port(p[1]), cfg.Op,
				flowID, srcCPU, dstCPU, sim.Time(flowID)*sim.Microsecond)
			out[p[0]]++
			in[p[1]]++
			flowID++
		}
	}
	for i := 0; i < cfg.Hosts; i++ {
		sw.RegisterPortProbes(c.regs[c.shardOf[i]], "fabric.", i)
	}
	sw.RegisterCoreProbes(c.regs[0], "fabric.")
	return c, nil
}

// Rounds returns the synchronization rounds the shard coordinator has
// executed (0 on one shard).
func (c *Cluster) Rounds() uint64 { return c.shards.Rounds() }

// Hosts returns the cluster's hosts in ID order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Registry returns a read-only view merging every shard's registry:
// every host's instruments under its "hostN." prefix plus the fabric's
// under "fabric.", including those a host registered after NewCluster
// (InstallMessages). Read it at a barrier (between Run windows) or after
// the run.
func (c *Cluster) Registry() *stats.Registry {
	reg := stats.NewRegistry()
	for _, r := range c.regs {
		reg.Adopt(r)
	}
	return reg
}

// ClusterResults is the measurement of one cluster window: per-host
// Results (index = host ID) plus cluster-wide aggregates.
type ClusterResults struct {
	Mode  string
	Hosts []Results

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

// Run starts the workloads, runs a warmup window, then measures for the
// given duration and returns per-host and aggregate results. Each window
// ends with every shard's clock aligned to its deadline and no shard
// worker running, so the snapshots observe every shard at the same
// virtual instant from the calling goroutine.
func (c *Cluster) Run(warmup, measure sim.Duration) ClusterResults {
	c.Start()
	c.shards.Run(warmup)
	befores := make([]snapshot, len(c.hosts))
	for i, h := range c.hosts {
		befores[i] = h.beginMeasure()
	}
	c.shards.Run(warmup + measure)
	r := ClusterResults{Mode: c.cfg.Host.Mode.String()}
	for i, h := range c.hosts {
		hr := h.results(befores[i], h.snap())
		r.Hosts = append(r.Hosts, hr)
		r.AggRxGbps += hr.RxGbps
		r.AggTxGbps += hr.TxGbps
	}
	return r
}
