// Quickstart: the paper's headline result — five bulk DCTCP flows into
// a 100Gbps receiver under four protection modes.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/workload"
)

func main() {
	fmt.Println("Fast & Safe IO memory protection — quickstart")
	fmt.Println("five iperf flows into a 100Gbps receiver, 30ms measured window")
	fmt.Println()
	fmt.Printf("%-10s %9s %9s %11s %12s %11s\n",
		"mode", "rx_gbps", "drops", "iotlb/page", "reads/page", "reads/miss")

	for _, mode := range []core.Mode{core.Off, core.Strict, core.FNS, core.FNSHuge} {
		s := workload.Iperf(mode, 0, 0)
		s.Warmup = 10 * sim.Millisecond
		s.Measure = 30 * sim.Millisecond
		r, err := s.Run()
		if err != nil {
			log.Fatal(err)
		}
		perMiss := 0.0
		if r.IOTLBPerPage > 0 {
			perMiss = r.ReadsPerPage / r.IOTLBPerPage
		}
		fmt.Printf("%-10s %9.1f %8.2f%% %11.2f %12.2f %11.2f\n",
			mode, r.RxGbps, r.DropRate*100, r.IOTLBPerPage, r.ReadsPerPage, perMiss)
	}

	fmt.Println()
	fmt.Println("F&S keeps the unavoidable one IOTLB miss per page (strict safety)")
	fmt.Println("but drives the cost of each miss to ~1 memory read, so throughput")
	fmt.Println("matches the IOMMU-off baseline — the paper's headline result.")
	fmt.Println("fns+huge (the paper's §5 future work) also removes most of the")
	fmt.Println("misses themselves, at 2MB revocation granularity.")
}
