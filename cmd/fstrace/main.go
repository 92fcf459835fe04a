// Command fstrace exports raw simulation traces as CSV for plotting —
// the per-allocation PTcache-L3 reuse distances behind Figures 2e/3e/7e/8e
// and the RPC latency distribution behind Figure 9.
//
// Examples:
//
//	fstrace -kind locality -mode strict -flows 40 > locality.csv
//	fstrace -kind latency -mode fns -rpc 4096 > latency.csv
//	fstrace -kind locality -seed 7 > locality-seed7.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"fastsafe/internal/core"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
	"fastsafe/internal/workload"
)

const csvDoc = `
Output columns:

  -kind locality
    alloc_index        sequential IOVA-allocation number within the window
    l3_stack_distance  LRU stack distance of the PTcache-L3 slot reused by
                       this allocation; -1 marks a cold (first-touch) access

  -kind latency
    quantile           cumulative probability (0.01 .. 0.9999)
    latency_us         request/response exchange latency at that quantile,
                       microseconds
`

func main() {
	kind := flag.String("kind", "locality", "trace kind: locality | latency")
	mode := flag.String("mode", "strict", "protection mode")
	flows := flag.Int("flows", 5, "bulk Rx flows")
	ring := flag.Int("ring", 256, "ring size in packets")
	rpc := flag.Int("rpc", 4096, "RPC size for latency traces")
	ms := flag.Int("ms", 40, "measurement window, milliseconds")
	limit := flag.Int("limit", 100000, "max locality trace points")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), csvDoc)
	}
	flag.Parse()

	m, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *ms <= 0 {
		fmt.Fprintf(os.Stderr, "-ms must be > 0, got %d\n", *ms)
		os.Exit(2)
	}

	switch *kind {
	case "locality":
		s := workload.IperfTrace(m, *flows, *ring, *limit)
		r := run(s, *seed, *ms)
		fmt.Println("alloc_index,l3_stack_distance")
		for i, d := range r.Trace.Dists {
			fmt.Printf("%d,%d\n", i, d)
		}

	case "latency":
		s := workload.RPC(m, *rpc)
		s.Host.RxFlows, s.Host.RingPackets = *flows, *ring
		r := run(s, *seed, *ms)
		fmt.Println("quantile,latency_us")
		for _, q := range []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90,
			0.95, 0.99, 0.995, 0.999, 0.9999} {
			fmt.Printf("%g,%.2f\n", q, float64(r.Latency.Quantile(q))/1000)
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown -kind %q\n", *kind)
		os.Exit(2)
	}
}

// run runs s under seed after a 10 ms warm-up for ms measured
// milliseconds, exiting on a config error.
func run(s workload.Spec, seed int64, ms int) host.Results {
	s.Host.Seed = seed
	s.Warmup, s.Measure = 10*sim.Millisecond, sim.Duration(ms)*sim.Millisecond
	r, err := s.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return r
}
