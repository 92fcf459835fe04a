// RPC latency example (the paper's Figure 9 scenario): a latency-sensitive
// request/response application shares the host with five throughput-bound
// iperf flows. Memory protection inflates the RPC tail when every DMA pays
// a multi-read page-table walk; F&S restores it.
//
// Run with: go run ./examples/rpclatency
package main

import (
	"fmt"
	"log"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/workload"
)

func main() {
	fmt.Println("4KB RPCs colocated with 5 iperf flows (dedicated RPC core)")
	fmt.Println()
	fmt.Printf("%-10s %9s %9s %9s %10s %8s\n", "mode", "p50_us", "p99_us", "p99.9_us", "p99.99_us", "rpcs")

	for _, mode := range []core.Mode{core.Off, core.Strict, core.FNS} {
		s := workload.RPC(mode, 4096)
		s.Warmup = 10 * sim.Millisecond
		r, err := s.Run()
		if err != nil {
			log.Fatal(err)
		}
		p := r.Percentiles()
		us := func(ns int64) float64 { return float64(ns) / 1000 }
		fmt.Printf("%-10s %9.1f %9.1f %9.1f %10.1f %8d\n",
			mode, us(p[0]), us(p[1]), us(p[2]), us(p[3]), r.Completed)
	}
}
