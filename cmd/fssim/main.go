// Command fssim runs ad-hoc host simulations and prints their measured
// results, for exploring configurations outside the paper's sweeps.
//
// Example:
//
//	fssim -mode fns -flows 20 -ring 512 -mtu 4096 -cores 5 -ms 40
//	fssim -mode strict -seeds 8 -parallel 4   # seed study, 4 workers
//	fssim -mode strict -storage 2 -storagedevs 4   # 4 co-tenant devices
//	fssim -mode fns -nics 1 -devmode strict   # second NIC, strict domain
//	fssim -mode strict -memhog 12 -timeline   # per-interval series as CSV
//	fssim -mode fns -faults 1 -faultseed 7    # canonical fault campaign
//	fssim -hosts 8 -mode fns -traffic incast  # 8-host cluster, 7:1 incast
//	fssim -hosts 4 -traffic alltoall -oversub 2   # oversubscribed core
//	fssim -hosts 64 -shards 4 -traffic pairs  # conservative-parallel engine
//	fssim -hosts 8 -traffic pairs -rdma write -atsentries 1024   # one-sided
//	fssim -mode fns -serve -churn 0.3 -conns 48      # serving-fleet churn
//	fssim -mode strict -serve -churn 0.5 -cohort 8 -audit   # aggregated cohorts
//
// -serve replaces the bulk iperf flows with the serving-fleet churn
// scenario: -conns open-loop connections with Poisson arrivals and
// bounded-Pareto request/response sizes, each dying with probability
// -churn per request and reborn with a fresh DMA buffer (so map/unmap
// and IOVA alloc/free rates scale with churn). -cohort K aggregates K
// connections per simulated flow-aggregate — counters and goodput stay
// identical to the exact per-flow model; only latency attribution is
// shared. -flows still attaches bulk flows next to the fleet when set
// explicitly. The serving line (requests served, goodput, latency
// tails, deaths, expiries) prints after the host line.
//
// -shards N splits a cluster run across N engine shards executed with
// conservative parallel DES (results stay deterministic and independent
// of the shard count; wall-clock drops on multi-core machines for
// balanced traffic patterns).
//
// -hosts N (N >= 2) switches to cluster mode: N full hosts — each with
// its own IOMMU, page tables, cores and devices — exchange traffic over
// a switched fabric instead of the abstract remote peer. -traffic picks
// the pattern (incast: everyone sends to host 0; alltoall; pairs),
// -flowsperpair scales the flow count, -fabricgbps and -oversub shape
// the fabric. Output is the aggregate line plus one indented line per
// host; -audit prints each host's safety tally and -control its mode
// switches.
//
// -rdma picks the cluster peer-flow verb: the default sendrecv posts
// receives on the remote CPU, while read and write are one-sided — the
// initiator's NIC addresses a registered window on the peer directly and
// the peer's cores never touch the data path. -atsentries N gives every
// device an N-entry translation cache (PCIe ATS): translations hit the
// device TLB, unmaps send ATC-invalidate messages, and the per-device
// breakdown reports hit rate, invalidations and (for unsafe modes) stale
// translations served.
//
// -faults enables deterministic fault injection and the translation
// auditor: a bare number is a canonical-campaign intensity, otherwise a
// comma-separated key=value spec like "invdrop=0.02,linkflap=3ms" (see
// internal/fault). The safety tally prints after the result line; -audit
// runs the auditor alone on a fault-free simulation.
//
// -timeline samples the telemetry series every -sampleus microseconds of
// virtual time and, after the result line, prints them as wide CSV (one
// row per sampling instant, one column per series) for plotting.
//
// With -seeds N > 1 the same configuration is run under N consecutive
// seeds (starting at -seed), fanned across -parallel workers; results
// print in seed order.
//
// Co-tenant DMA devices share the host's IOMMU with the primary NIC,
// each in its own protection domain: -storagedevs attaches that many
// storage controllers reading at -storage GB/s apiece, -nics attaches
// extra full network datapaths, and -devmode overrides their protection
// mode (default: the host's -mode). When devices are attached the
// per-device breakdown prints after the host line.
//
// A flag the run would ignore exits 2 like a bad value: the cluster
// knobs need -hosts, -flows, -txflows, -timeline and -trace need a
// single host, the serving knobs need -serve, -devmode a co-tenant
// device, -sampleus -timeline, -faultseed -faults and -parallel -seeds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fastsafe/internal/control"
	"fastsafe/internal/core"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

func main() {
	// Flags naming a host or cluster value bind straight to the config;
	// host.New and host.NewCluster check every one of them. The rest are
	// spec strings, parsed once below by the package owning their type,
	// and fssim's own run, device-count and serving switches.
	var (
		cfg   host.Config
		cc    host.ClusterConfig
		serve host.ServeConfig
	)
	mode := flag.String("mode", "strict", "protection mode: "+strings.Join(core.ValidModeNames(), "|"))
	flag.IntVar(&cfg.RxFlows, "flows", 5, "bulk Rx flows")
	flag.IntVar(&cfg.TxFlows, "txflows", 0, "bulk Tx flows (each on its own extra core)")
	flag.IntVar(&cfg.Cores, "cores", 5, "cores serving Rx flows")
	flag.IntVar(&cfg.RingPackets, "ring", 256, "Rx ring size in packets per core")
	flag.IntVar(&cfg.MTU, "mtu", 4096, "MTU in bytes")
	flag.IntVar(&cfg.DescriptorPages, "desc", 64, "pages per Rx descriptor")
	ms := flag.Int("ms", 30, "measurement window, milliseconds")
	warmup := flag.Int("warmup", 10, "warmup window, milliseconds")
	flag.Int64Var(&cfg.Seed, "seed", 1, "simulation seed (first seed with -seeds)")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulations to run concurrently")
	flag.BoolVar(&cfg.Telemetry.TraceL3, "trace", false, "summarise the PTcache-L3 locality trace")
	timeline := flag.Bool("timeline", false, "sample per-interval series and print them as CSV")
	sampleus := flag.Int("sampleus", 500, "sampling interval for -timeline, microseconds")
	flag.Float64Var(&cfg.MemHogGBps, "memhog", 0, "co-tenant memory antagonist, GB/s")
	storage := flag.Float64("storage", 0, "co-tenant storage device read rate, GB/s each")
	storagedevs := flag.Int("storagedevs", 0, "co-tenant storage devices (default 1 when -storage is set)")
	nics := flag.Int("nics", 0, "extra co-tenant NIC datapaths")
	devmode := flag.String("devmode", "", "co-tenant device protection mode (default: -mode)")
	controlSpec := flag.String("control", "", "adaptive control plane: ';'-separated rules like \"guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=2ms\" plus optional every=<dur>; a rule's metric names an instrument of its own host")
	faults := flag.String("faults", "", "fault plan: campaign intensity or key=value spec (implies -audit)")
	flag.Int64Var(&cfg.FaultSeed, "faultseed", 0, "fault-injector seed (0: inherit -seed)")
	flag.BoolVar(&cfg.Audit, "audit", false, "cross-check every DMA translation against the live page table")
	flag.IntVar(&cc.Hosts, "hosts", 0, "cluster size: simulate N full hosts on a switched fabric (0: single host)")
	traffic := flag.String("traffic", "incast", "cluster traffic pattern: incast|alltoall|pairs")
	flag.Float64Var(&cc.Fabric.PortGbps, "fabricgbps", 0, "fabric port line rate, Gbps (0: NIC line rate)")
	flag.Float64Var(&cc.Fabric.Oversub, "oversub", 0, "fabric core oversubscription factor (0: non-blocking)")
	flag.IntVar(&cc.FlowsPerPair, "flowsperpair", 1, "cluster flows per (src,dst) host pair")
	flag.IntVar(&cc.Shards, "shards", 1, "cluster engine shards for conservative-parallel execution (1: single engine)")
	rdma := flag.String("rdma", "", "cluster peer-flow verb: sendrecv|read|write (default sendrecv; read/write are one-sided)")
	flag.IntVar(&cfg.ATSEntries, "atsentries", 0, "device-TLB (ATS cache) entries per device; 0 disables the device cache")
	serveFleet := flag.Bool("serve", false, "run the serving-fleet churn scenario instead of bulk flows")
	flag.Float64Var(&serve.Churn, "churn", 0.2, "serving-fleet per-request connection death probability, in (0, 1]")
	flag.IntVar(&serve.Conns, "conns", 48, "serving-fleet connection count")
	flag.IntVar(&serve.Cohort, "cohort", 1, "connections per aggregated flow cohort (1: exact per-flow model)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var err error
	if cfg.Mode, err = core.ParseMode(*mode); err != nil {
		exitUsage(err)
	}
	if cc.Op, err = transport.ParseOp(*rdma); err != nil {
		exitUsage(err)
	}
	if cc.Traffic, err = host.ParseTraffic(*traffic); err != nil {
		exitUsage(err)
	}
	if cfg.Faults, err = fault.Parse(*faults); err != nil {
		exitUsage(err)
	}
	if cfg.Control, err = control.Parse(*controlSpec); err != nil {
		exitUsage(err)
	}
	var devMode *core.Mode // nil: co-tenant devices inherit -mode
	if *devmode != "" {
		m, err := core.ParseMode(*devmode)
		if err != nil {
			exitUsage(fmt.Errorf("-devmode: %w", err))
		}
		devMode = &m
	}
	switch {
	case *seeds < 1:
		exitUsage(fmt.Errorf("-seeds must be >= 1, got %d", *seeds))
	case *ms < 1:
		exitUsage(fmt.Errorf("-ms must be >= 1, got %d", *ms))
	case *warmup < 0:
		exitUsage(fmt.Errorf("-warmup must be >= 0, got %d", *warmup))
	case *storage < 0:
		exitUsage(fmt.Errorf("-storage must be >= 0, got %g", *storage))
	case *storagedevs < 0:
		exitUsage(fmt.Errorf("-storagedevs must be >= 0, got %d", *storagedevs))
	case *nics < 0:
		exitUsage(fmt.Errorf("-nics must be >= 0, got %d", *nics))
	case *timeline && *sampleus <= 0:
		exitUsage(fmt.Errorf("-sampleus must be positive, got %d", *sampleus))
	}

	nStorage := *storagedevs
	if nStorage == 0 && *storage > 0 {
		nStorage = 1
	}
	cluster := cc.Hosts != 0
	// A flag the run would ignore is an error: each row names a switch
	// and the flags that need it on.
	for _, r := range []struct {
		needs string
		on    bool
		flags []string
	}{
		{"cluster mode (-hosts >= 2)", cluster, []string{"traffic", "flowsperpair", "fabricgbps", "oversub", "shards", "rdma"}},
		{"a single host (without -hosts)", !cluster, []string{"flows", "txflows", "timeline", "trace"}},
		{"-serve (the serving-fleet churn scenario)", *serveFleet, []string{"churn", "conns", "cohort"}},
		{"a co-tenant device (-storage or -nics)", nStorage+*nics > 0, []string{"devmode"}},
		{"a positive -storage rate", *storage > 0, []string{"storagedevs"}},
		{"-timeline", *timeline, []string{"sampleus"}},
		{"-faults", cfg.Faults.Enabled(), []string{"faultseed"}},
		{"-seeds above 1", *seeds > 1, []string{"parallel"}},
	} {
		for _, name := range r.flags {
			if set[name] && !r.on {
				exitUsage(fmt.Errorf("%s needs %s", given(name), r.needs))
			}
		}
	}
	for i := 0; i < nStorage; i++ {
		cfg.Topology.Storage = append(cfg.Topology.Storage, host.StorageSpec{ReadGBps: *storage, Mode: devMode})
	}
	for i := 0; i < *nics; i++ {
		cfg.Topology.NICs = append(cfg.Topology.NICs, host.NICSpec{Mode: devMode})
	}
	multidev := nStorage+*nics > 0

	if *serveFleet {
		cfg.Serve = &serve
		// The fleet is the workload: drop the default bulk flows unless
		// the user asked for them explicitly.
		if !set["flows"] {
			cfg.RxFlows = -1
		}
	}
	if *timeline {
		cfg.Telemetry.SampleEvery = sim.Duration(*sampleus) * sim.Microsecond
	}
	cfg.Telemetry.TraceLimit = 200000
	warm, meas := sim.Duration(*warmup)*sim.Millisecond, sim.Duration(*ms)*sim.Millisecond

	if cluster {
		runCluster(cc, cfg, *seeds, *parallel, warm, meas)
		return
	}

	results := runSeeds(cfg.Seed, *seeds, *parallel, func(s int64) (host.Results, error) {
		c := cfg
		c.Seed = s
		h, err := host.New(c)
		if err != nil {
			return host.Results{}, err
		}
		return h.Run(warm, meas), nil
	})
	for i, r := range results {
		if *seeds > 1 {
			fmt.Printf("seed %d:\n", cfg.Seed+int64(i))
		}
		fmt.Println(r)
		fmt.Printf("per-core CPU utilisation: ")
		for _, u := range r.CPUUtil {
			fmt.Printf("%3.0f%% ", u*100)
		}
		fmt.Println()
		if r.ServeLatency != nil {
			printServing("serving", r)
		}
		if r.Safety != nil {
			fmt.Printf("safety: %s (%d faults injected)\n", r.Safety, r.FaultsInjected)
		}
		printControl("control", r)
		if multidev {
			fmt.Println(r.DeviceTable())
		}
		if r.Trace != nil {
			fmt.Printf("L3 locality: %d allocs, frac>=32 %.3f, frac>=64 %.3f, frac>=128 %.3f\n",
				len(r.Trace.Dists), r.Trace.FractionAbove(32), r.Trace.FractionAbove(64), r.Trace.FractionAbove(128))
		}
		if *timeline {
			printTimeline(r.Timeline)
		}
	}
}

// given names a flag the user set as an error message shows it: a
// number with its value, a name or a switch on its own.
func given(name string) string {
	f := flag.Lookup(name)
	switch f.Value.(flag.Getter).Get().(type) {
	case string, bool:
		return "-" + name
	}
	return fmt.Sprintf("-%s %s", name, f.Value)
}

// exitUsage reports a configuration error and exits 2, the status the
// flag package uses for a bad flag.
func exitUsage(err error) {
	fmt.Fprintln(os.Stderr, "fssim:", err)
	os.Exit(2)
}

// runSeeds runs one simulation per seed, from first, on parallel workers
// and returns the results in seed order. A run fails only when host.New
// or host.NewCluster rejects the configuration, which exits 2 like a bad
// flag; a run that panics exits 1.
func runSeeds[R any](first int64, seeds, parallel int, run func(seed int64) (R, error)) []R {
	jobs := make([]runner.Job[R], seeds)
	for i := range jobs {
		s := first + int64(i)
		jobs[i] = func() (R, error) { return run(s) }
	}
	results, err := runner.Collect(runner.Config{Workers: parallel}, jobs)
	var panicked *runner.PanicError
	switch {
	case errors.As(err, &panicked):
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(1)
	case err != nil:
		exitUsage(err)
	}
	return results
}

// runCluster simulates cc.Hosts full hosts, each configured as hostCfg,
// on a switched fabric and prints the aggregate plus per-host results
// (and per-host serving, safety and control decisions when present).
func runCluster(cc host.ClusterConfig, hostCfg host.Config, seeds, parallel int, warmup, measure sim.Duration) {
	results := runSeeds(hostCfg.Seed, seeds, parallel, func(s int64) (host.ClusterResults, error) {
		c := cc
		c.Host = hostCfg
		c.Host.Seed = s
		cl, err := host.NewCluster(c)
		if err != nil {
			return host.ClusterResults{}, err
		}
		return cl.Run(warmup, measure), nil
	})
	for i, r := range results {
		if seeds > 1 {
			fmt.Printf("seed %d:\n", hostCfg.Seed+int64(i))
		}
		fmt.Println(r)
		for j, hr := range r.Hosts {
			if hr.ServeLatency != nil {
				printServing(fmt.Sprintf("host%d serving", j), hr)
			}
			if hr.Safety != nil {
				fmt.Printf("host%d safety: %s\n", j, hr.Safety)
			}
			printControl(fmt.Sprintf("host%d control", j), hr)
		}
	}
}

// printServing renders one host's serving-fleet line: completions,
// goodput, latency tails and churn accounting.
func printServing(label string, r host.Results) {
	us := func(q float64) float64 { return float64(r.ServeLatency.Quantile(q)) / 1e3 }
	fmt.Printf("%s: served=%d goodput=%.1fGbps p50=%.1fus p99=%.1fus p999=%.1fus deaths=%d expired=%d\n",
		label, r.ServeCompleted, r.ServeGbps, us(0.50), us(0.99), us(0.999), r.ServeDeaths, r.ServeExpired)
}

// printControl renders one host's control-plane decision log, if its
// rules switched any mode: the count, then one indented line each.
func printControl(label string, r host.Results) {
	if len(r.Control) == 0 {
		return
	}
	fmt.Printf("%s: %d mode switches\n", label, len(r.Control))
	for _, d := range r.Control {
		fmt.Printf("  %s\n", d)
	}
}

// printTimeline renders the window's samples as wide CSV: one row per
// sampling instant, one column per series.
func printTimeline(samples []host.Sample) {
	fmt.Println("t_us,rx_gbps,tx_gbps,iotlb_miss_per_pg,ptcache_miss_per_pg,walk_reads,inv_reqs,cwnd_mean,core_util_max,invq_depth,mem_util")
	for _, s := range samples {
		fmt.Printf("%.0f,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n", float64(s.At)/1e3,
			s.RxGbps, s.TxGbps, s.IOTLBMissPerPage, s.PTcacheMissPerPage,
			float64(s.WalkReads), float64(s.InvReqs), s.CwndMean, s.CoreUtilMax,
			float64(s.InvQDepth), s.MemUtil)
	}
}
