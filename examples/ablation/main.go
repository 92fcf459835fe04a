// Ablation example (the paper's Figure 12): which of the F&S ideas does
// the work? A = preserving page-table caches across invalidations;
// B = contiguous descriptor-sized IOVAs plus batched invalidations.
// Neither alone reaches F&S: A still suffers locality misses, B still
// loses its caches to invalidations.
//
// Run with: go run ./examples/ablation
package main

import (
	"fmt"
	"log"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/workload"
)

func main() {
	fmt.Println("F&S ablation on the Redis 8KB-value workload")
	fmt.Println()
	fmt.Printf("%-30s %9s %11s %11s %12s %10s\n",
		"configuration", "gbps", "ptL1/page", "ptL3/page", "reads/page", "inv_reqs")

	labels := map[core.Mode]string{
		core.Strict:         "Linux strict",
		core.StrictPreserve: "Linux + A (preserve caches)",
		core.StrictContig:   "Linux + B (contig + batch)",
		core.FNS:            "F&S (A + B)",
	}
	for _, mode := range []core.Mode{core.Strict, core.StrictPreserve, core.StrictContig, core.FNS} {
		s := workload.Redis(mode, 8<<10)
		s.Warmup = 10 * sim.Millisecond
		s.Measure = 30 * sim.Millisecond
		r, err := s.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-30s %9.1f %11.3f %11.3f %12.2f %10d\n",
			labels[mode], r.MsgGbps, r.L1PerPage, r.L3PerPage, r.ReadsPerPage, r.InvRequests)
	}
}
