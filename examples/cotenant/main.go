// Co-tenancy example: the receiver shares its host with an NVMe-style
// storage device (same IOMMU, separate protection domain) and a
// memory-bandwidth antagonist. Under Linux strict the co-tenants inflate
// the network datapath's translation costs; F&S's one-read walks shrug
// them off.
//
// Run with: go run ./examples/cotenant
package main

import (
	"fmt"
	"log"

	"fastsafe/internal/core"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
)

func main() {
	fmt.Println("five iperf flows + 8GB/s storage reads + 8GB/s memory hog")
	fmt.Println()
	fmt.Printf("%-8s %-10s %9s %12s %9s %9s\n",
		"mode", "cotenants", "rx_gbps", "reads/page", "mem_util", "blocks")

	for _, mode := range []core.Mode{core.Strict, core.FNS} {
		for _, loaded := range []bool{false, true} {
			cfg := host.Config{Mode: mode}
			if loaded {
				cfg.MemHogGBps = 8
				cfg.Topology.Storage = []host.StorageSpec{{ReadGBps: 8}}
			}
			h, err := host.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			r := h.Run(10*sim.Millisecond, 30*sim.Millisecond)
			var blocks int64
			for _, d := range h.Devices() {
				if d.Kind() == "storage" {
					blocks += d.Stats().Ops
				}
			}
			label := "none"
			if loaded {
				label = "disk+hog"
			}
			fmt.Printf("%-8s %-10s %9.1f %12.2f %8.0f%% %9d\n",
				mode, label, r.RxGbps, r.ReadsPerPage, r.MemUtil*100, blocks)
		}
	}
	fmt.Println()
	fmt.Println("Domain-tagged IOMMU caches keep the devices isolated (no device")
	fmt.Println("can use another's translations) while still contending for")
	fmt.Println("capacity and walker bandwidth — the production multi-tenancy")
	fmt.Println("problem that motivates the paper.")
}
