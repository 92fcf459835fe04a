package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

// workload is one benchmark input: a simulator configuration built from
// the seed, the fixed simulated windows every run of it advances
// through, and the op mix its per-layer replays reuse.
type workload struct {
	name string
	why  string

	warmup  sim.Duration // simulated time before the measured window
	measure sim.Duration // simulated length of the measured window
	slice   sim.Duration // traced-run slice length

	build func(seed int64) (*system, error)

	// Replay op mix, taken from the configuration built above.
	mode      core.Mode
	descPages int               // pages per Rx descriptor
	cpus      int               // CPUs of the NIC domain (cores + Tx flows + peer slots + 8)
	ats       int               // device-TLB entries (0: no ATS)
	rxRemap   bool              // Rx windows rotate by RemapRxDescriptor, not unmap+map
	fleet     *host.ServeConfig // nil: no serving fleet
}

// capFleet is cap-serve's serving fleet: the cap cell of the churn
// gauntlet, every connection modelled exactly.
var capFleet = host.ServeConfig{Conns: 48, Churn: 0.3, Cohort: 1}

// The workloads, in the order the benchmark prints them. Window lengths
// are sized so one measured window takes one to two host seconds on a
// 2-vCPU machine; they are part of the benchmark's definition and stay
// fixed so digests and per-DMA counts compare across commits.
var workloads = []*workload{
	{
		name: "strict-bulk",
		why: "Linux strict mode maps, walks, unmaps and invalidates every page: " +
			"most work in iommu, the paged core policy, ptable, iova and transport",
		warmup: 5 * sim.Millisecond, measure: 50 * sim.Millisecond, slice: sim.Millisecond,
		build: func(seed int64) (*system, error) {
			h, err := host.New(host.Config{Mode: core.Strict, Cores: 5, RxFlows: 5, TxFlows: 2, Seed: seed})
			if err != nil {
				return nil, err
			}
			// The Fig. 9 RPC stream, on the core after the Tx flows' cores.
			h.InstallMessages(host.MsgConfig{
				Pattern: host.LocalServes, Streams: 1, Depth: 1,
				ReqBytes: 4096, RespBytes: 4096, AppCPU: 2 * sim.Microsecond,
				Cores: 1, CoreBase: 7,
			})
			return hostSystem(h), nil
		},
		mode: core.Strict, descPages: 64, cpus: 5 + 2 + 8,
	},
	{
		name: "cap-serve",
		why: "open-loop serving churn with a map/unmap per request under a fault campaign: " +
			"most work in cohort, stats, the event heap, the cap policy and the auditor; bypasses walks",
		warmup: 10 * sim.Millisecond, measure: 160 * sim.Millisecond, slice: 2 * sim.Millisecond,
		build: func(seed int64) (*system, error) {
			h, err := host.New(host.Config{
				Mode: core.Cap, RxFlows: -1, Audit: true, Seed: seed,
				Faults: fault.Campaign(0.3),
				Serve:  &capFleet,
			})
			if err != nil {
				return nil, err
			}
			return hostSystem(h), nil
		},
		mode: core.Cap, descPages: 64, cpus: 5 + 8, fleet: &capFleet,
	},
	{
		name: "fns-rdma-sharded",
		why: "8-host RDMA-write incast on 2 engine shards with a 1024-entry ATS cache: " +
			"most work in the shard coordinator, ats and fabric hops; iova nearly idle",
		warmup: 5 * sim.Millisecond, measure: 80 * sim.Millisecond, slice: sim.Millisecond,
		build: func(seed int64) (*system, error) {
			c, err := host.NewCluster(host.ClusterConfig{
				Hosts: 8, Traffic: host.Incast, Op: transport.Write, Shards: 2,
				Host: host.Config{Mode: core.FNS, ATSEntries: 1024, Seed: seed},
			})
			if err != nil {
				return nil, err
			}
			return clusterSystem(c), nil
		},
		// Host 0, the incast sink, rotates the windows: no Tx flows or peer slots.
		mode: core.FNS, descPages: 64, cpus: 5 + 8, ats: 1024, rxRemap: true,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// system is a built simulation, single host or cluster, seen through the
// public entry points the benchmark drives and the registry it reads.
type system struct {
	reg   *stats.Registry
	hosts []*host.Host
	cl    *host.Cluster // nil for a single host

	dmaNames   []string // every device link's served-DMA counter
	auditNames []string // every host's audited stale-serve count
	histNames  []string
}

func hostSystem(h *host.Host) *system {
	return newSystem(h.Telemetry().Registry(), []*host.Host{h}, nil)
}

func clusterSystem(c *host.Cluster) *system {
	return newSystem(c.Registry(), c.Hosts(), c)
}

func newSystem(reg *stats.Registry, hosts []*host.Host, cl *host.Cluster) *system {
	s := &system{reg: reg, hosts: hosts, cl: cl}
	for _, n := range reg.Names() {
		switch {
		case reg.LookupHistogram(n) != nil:
			s.histNames = append(s.histNames, n)
		case strings.HasSuffix(n, ".pcie.rx.dmas"), strings.HasSuffix(n, ".pcie.tx.dmas"):
			s.dmaNames = append(s.dmaNames, n)
		case localName(n) == "audit.violations":
			s.auditNames = append(s.auditNames, n)
		}
	}
	return s
}

// start launches the workloads (Host.Start / Cluster.Start).
func (s *system) start() {
	if s.cl != nil {
		s.cl.Start()
		return
	}
	s.hosts[0].Start()
}

// advance runs simulated time from `from` to `to`: Engine.Run on a host,
// Cluster.Run(from, to-from) on a cluster. Either way every clock stands
// at `to` on return and the registry may be read.
func (s *system) advance(from, to sim.Time) {
	if s.cl != nil {
		s.cl.Run(from, to-from)
		return
	}
	s.hosts[0].Engine().Run(to)
}

// engines returns the distinct event engines behind the hosts.
func (s *system) engines() []*sim.Engine {
	var out []*sim.Engine
	seen := map[*sim.Engine]bool{}
	for _, h := range s.hosts {
		if e := h.Engine(); !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func (s *system) fired() (n uint64) {
	for _, e := range s.engines() {
		n += e.Fired()
	}
	return n
}

func (s *system) rounds() uint64 {
	if s.cl == nil {
		return 0
	}
	return s.cl.Rounds()
}

// dmas counts the PCIe transactions the Rx and Tx links of every device
// on every host have served (each link still completes at most the one
// DMA in service).
func (s *system) dmas() int64 { return int64(s.sum(s.dmaNames)) }

// staleServed counts DMAs served from a stale translation on any audited
// host (0 when nothing is audited).
func (s *system) staleServed() int64 { return int64(s.sum(s.auditNames)) }

func (s *system) sum(names []string) float64 {
	var t float64
	for _, n := range names {
		v, _ := s.reg.Value(n)
		t += v
	}
	return t
}

// histCount sums the observations every registered histogram holds.
func (s *system) histCount() int64 {
	var n int64
	for _, name := range s.histNames {
		n += s.reg.LookupHistogram(name).Count()
	}
	return n
}

// localName strips a cluster host's "hostN." instrument prefix.
func localName(n string) string {
	if strings.HasPrefix(n, "host") {
		if i := strings.IndexByte(n, '.'); i > 4 {
			if _, err := strconv.Atoi(n[4:i]); err == nil {
				return n[i+1:]
			}
		}
	}
	return n
}

// digest hashes every counter and gauge of the registry, sorted by name.
// It leaves out what depends on how the run was sliced rather than on
// what was simulated: engine.* (event-loop bookkeeping), the latency
// histograms (host.Run and Cluster.Run reset them at their measure
// boundary) and *.mem.util (building Results rolls the bus EWMA).
func digest(reg *stats.Registry) string {
	names := reg.Names()
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		if reg.LookupHistogram(n) != nil || strings.HasPrefix(localName(n), "engine.") || strings.HasSuffix(n, "mem.util") {
			continue
		}
		v, _ := reg.Value(n)
		fmt.Fprintf(h, "%s=%s\n", n, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
