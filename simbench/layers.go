package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// traced makes one untraced timed run, then the traced run and the layer
// replays, and reports every per-layer metric.
func traced(w *workload, seed int64, out string) result {
	base := spawn(w, seed)
	tr := newTracer()
	vals, notes, run := traceAndReplay(w, seed, tr)
	runs := []runStats{base, run}
	ref, failed := checkRuns(runs, base.Digest)
	res := result{Correct: len(failed) == 0, Attempted: 2, Failed: len(failed), Metrics: map[string]metric{}}
	if vals != nil && runs[0].Err == "" {
		vals["trace.overhead_frac"] = ratio(base.SimMs/base.Wall, run.SimMs/run.Wall) - 1
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
		}
	}
	report(w, seed, ref, res, failed, perLayer)
	for _, n := range notes {
		fmt.Println("   " + n)
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("   spans: %s (%d)\n", path, len(tr.spans))
	}
	return res
}

// traceAndReplay makes the traced run and the layer replays. The run it
// returns carries the traced run's digest and rate; an error or a panic
// in either part fails it.
func traceAndReplay(w *workload, seed int64, tr *tracer) (vals map[string]float64, notes []string, r runStats) {
	defer func() {
		if p := recover(); p != nil {
			vals, notes, r = nil, nil, runStats{Err: fmt.Sprintf("panic: %v", p)}
		}
	}()
	root := tr.begin(0, "traced run "+w.name)
	win, s, err := tracedRun(w, seed, tr, root)
	tr.end(root, nil)
	if err != nil {
		return nil, nil, runStats{Err: err.Error()}
	}
	r = runStats{Digest: digest(s.reg), Stale: s.staleServed(), SimMs: win.simMs, Wall: win.wall}
	m := newMix(w, win)
	vals, notes = layerValues(w, win, m, replayLayers(w, seed, m, tr, 1), len(s.reg.Names()))
	return vals, notes, r
}

// layerValues turns the traced window's work counts and the replayed
// costs into the per-layer metrics. A layer's ns_per_dma is its self
// cost: each replayed call's ns times its calls per DMA, less the calls
// into other layers the replay made (counted by the replay and priced by
// that layer's own replay), so the layers sum without double counting.
// notes lists the replay-fidelity lines to print.
func layerValues(w *workload, win *window, m mix, rp *replays, instruments int) (map[string]float64, []string) {
	c := win.counts
	per := win.per
	ns := func(k string) float64 { return rp.costs[k].ns }
	al := func(k string) float64 { return rp.costs[k].allocs }
	ch := func(k string) float64 { return rp.children[k] }

	walkTrans := c["iotlb_hits"] + c["iotlb_misses"]
	capChecks := c["translations"] - walkTrans
	iovaAllocs := c["iova_cache_allocs"] + c["iova_tree_allocs"]
	iovaFrees := c["iova_cache_frees"] + c["iova_tree_frees"]
	arrivals := c["serve_done"] + c["serve_expired"]
	v := map[string]float64{
		"sim.events_per_dma":         per("events"),
		"sim.pending_mean":           c["pending"] / float64(win.slices),
		"sim.rounds_per_sim_ms":      c["rounds"] / win.simMs,
		"sim.shard_idle_frac":        ratio(c["idle_cpu_s"], c["total_cpu_s"]),
		"sim.event_ns":               ns("sim.event"),
		"sim.round_ns":               ns("sim.round"),
		"iommu.translations_per_dma": per("translations"),
		"iommu.iotlb_hit_frac":       m.iotlbHit,
		"iommu.walks_per_dma":        per("walks"),
		"iommu.walk_reads_per_dma":   per("walk_reads"),
		"iommu.inv_requests_per_dma": per("inv_requests"),
		"iommu.cap_checks_per_dma":   ratio(capChecks, c["dmas"]),
		"iommu.translate_ns":         ns("iommu.translate"),
		"iommu.translate_allocs":     al("iommu.translate"),
		"iommu.invalidate_ns":        ns("iommu.invalidate"),
		"iommu.cap_check_ns":         ns("iommu.cap_check"),
		"ats.lookups_per_dma":        per("ats_lookups"),
		"ats.hit_frac":               m.atsHit,
		"ats.inv_messages_per_dma":   per("ats_inv_messages"),
		"ats.translate_ns":           ns("ats.translate"),
		"ats.invalidate_ns":          ns("ats.invalidate"),
		"ptable.maps_per_dma":        per("pages_mapped"),
		"ptable.unmaps_per_dma":      per("pages_unmapped"),
		"ptable.map_ns":              ns("ptable.map"),
		"ptable.unmap_ns":            ns("ptable.unmap"),
		"ptable.lookup_ns":           ns("ptable.lookup"),
		"iova.allocs_per_dma":        ratio(iovaAllocs, c["dmas"]),
		"iova.rcache_hit_frac":       m.rcacheHit,
		"iova.alloc_ns":              ns("iova.alloc"),
		"iova.free_ns":               ns("iova.free"),
		"pcie.submit_ns":             ns("pcie.submit"),
		"pcie.submit_allocs":         al("pcie.submit"),
		"nic.drop_frac":              ratio(c["nic_dropped"], c["nic_arrived"]),
		"transport.segments_per_dma": per("segments"),
		"transport.retransmit_frac":  ratio(c["retransmits"], c["segments"]),
		"transport.segment_ns":       ns("transport.segment"),
		"transport.segment_allocs":   al("transport.segment"),
		"fabric.packets_per_dma":     per("fabric_packets"),
		"fabric.mark_frac":           ratio(c["fabric_marked"], c["fabric_packets"]),
		"fabric.hop_ns":              ns("fabric.hop"),
		"cohort.arrivals_per_dma":    ratio(arrivals, c["dmas"]),
		"cohort.arrival_ns":          ns("cohort.arrival"),
		"stats.observes_per_dma":     per("observes"),
		"stats.instruments":          float64(instruments),
		"stats.observe_ns":           ns("stats.observe"),
		"fault.audits_per_dma":       per("audit_checked"),
		"fault.audit_ns":             ns("fault.audit"),
		"go.gc_cpu_frac":             ratio(c["gc_cpu_s"], c["total_cpu_s"]-c["idle_cpu_s"]),
		"go.gc_cycles_per_sim_ms":    c["gc_cycles"] / win.simMs,
		"go.heap_peak_mb":            win.heapPeak / (1 << 20),
	}

	// Per-DMA self costs.
	inv := ns("iommu.invalidate")
	if w.ats > 0 {
		inv = ns("ats.invalidate") // the domain's invalidations go through its ATC
	}
	v["sim.ns_per_dma"] = ns("sim.event")*per("events") + ns("sim.round")*per("rounds")
	v["ptable.ns_per_dma"] = ns("ptable.map")*per("pages_mapped") + ns("ptable.unmap")*per("pages_unmapped") +
		ns("ptable.lookup")*per("walks")
	v["iova.ns_per_dma"] = ns("iova.alloc")*ratio(iovaAllocs, c["dmas"]) + ns("iova.free")*ratio(iovaFrees, c["dmas"])
	v["iommu.ns_per_dma"] = ns("iommu.translate")*ratio(walkTrans, c["dmas"]) - ns("ptable.lookup")*per("walks") +
		ns("iommu.invalidate")*per("inv_requests") + ns("iommu.cap_check")*ratio(capChecks, c["dmas"])
	v["ats.ns_per_dma"] = (ns("ats.translate")-ch("ats.translate.iommu")*ns("iommu.translate"))*per("ats_lookups") +
		(ns("ats.invalidate")-ns("iommu.invalidate"))*per("ats_inv_messages")

	// Core: Rx descriptor page cycles (or window remaps) and Tx page
	// cycles, each less its iova, ptable and invalidation children.
	mapped := per("pages_mapped")
	rxPages, txPages := m.rxPageShare*mapped, (1-m.rxPageShare)*mapped
	self := func(op string, inclusive float64) float64 {
		return inclusive - ch(op+".iova_alloc")*ns("iova.alloc") - ch(op+".iova_free")*ns("iova.free") -
			ch(op+".ptable_map")*ns("ptable.map") - ch(op+".ptable_unmap")*ns("ptable.unmap") - ch(op+".inv")*inv
	}
	rxOp, rxIncl, rxAllocs := "core.rx", ns("core.rx_map")+ns("core.rx_unmap"), al("core.rx_map")
	if w.rxRemap {
		rxOp, rxIncl, rxAllocs = "core.remap", ns("core.remap"), al("core.remap")
	}
	v["core.map_ns"] = mixed(m.rxPageShare, ns("core.rx_map"), ns("core.tx_map"))
	v["core.unmap_ns"] = mixed(m.rxPageShare, ns("core.rx_unmap"), ns("core.tx_unmap"))
	v["core.remap_ns"] = ns("core.remap")
	v["core.map_allocs"] = mixed(m.rxPageShare, al("core.rx_map"), al("core.tx_map"))
	v["core.ns_per_dma"] = rxPages*self(rxOp, rxIncl) + txPages*self("core.tx", ns("core.tx_map")+ns("core.tx_unmap"))

	v["pcie.ns_per_dma"] = ns("pcie.submit") - ch("pcie.events")*ns("sim.event")
	v["transport.ns_per_dma"] = ns("transport.segment") * per("segments")
	v["fabric.ns_per_dma"] = (ns("fabric.hop") - ch("fabric.events")*ns("sim.event")) * per("fabric_packets")
	v["cohort.ns_per_dma"] = ns("cohort.arrival") * v["cohort.arrivals_per_dma"]
	v["stats.ns_per_dma"] = ns("stats.observe") * v["stats.observes_per_dma"]
	v["fault.ns_per_dma"] = ns("fault.audit") * per("audit_checked")

	// The host's own work — traffic engines, NIC rings, memory bus,
	// closures — is the measured mutator time less every replayed layer.
	var layers float64
	for _, l := range []string{"sim", "iommu", "ats", "core", "ptable", "iova", "pcie", "transport", "fabric", "cohort", "stats", "fault"} {
		layers += v[l+".ns_per_dma"]
	}
	v["host.self_ns_per_dma"] = c["user_cpu_s"]*1e9/c["dmas"] - layers
	layerAllocs := al("iommu.translate")*ratio(walkTrans, c["dmas"]) + al("ats.translate")*per("ats_lookups") +
		rxAllocs*rxPages + al("core.tx_map")*txPages + al("pcie.submit") +
		al("transport.segment")*per("segments") + al("fabric.hop")*per("fabric_packets") +
		al("sim.round")*per("rounds") + al("cohort.arrival")*v["cohort.arrivals_per_dma"]
	v["host.self_allocs_per_dma"] = per("allocs") - layerAllocs

	notes := []string{
		fmt.Sprintf("replay fidelity    %-22s %10s %10s", "ratio", "replay", "run"),
		fidelity("iommu.iotlb_hit_frac", rp.produced["iommu.iotlb_hit_frac"], m.iotlbHit),
		fidelity("ats.hit_frac", rp.produced["ats.hit_frac"], m.atsHit),
		fidelity("iova.rcache_hit_frac", rp.produced["iova.rcache_hit_frac"], m.rcacheHit),
		fidelity("sim.pending_mean", rp.produced["sim.pending_mean"], v["sim.pending_mean"]),
	}
	// A negative self cost means the replays priced a layer's calls, or
	// its children, above what the run spent on them: a replay error, so
	// it is reported, not clipped.
	for _, d := range perLayer {
		if strings.HasSuffix(d.Name, "ns_per_dma") && v[d.Name] < 0 {
			notes = append(notes, fmt.Sprintf("REPLAY ERROR: %s = %.1f < 0", d.Name, v[d.Name]))
		}
	}
	return v, notes
}

// mixed weights a per-page Rx cost against a per-page Tx cost by the
// Rx share of mapped pages.
func mixed(rxShare, rx, tx float64) float64 { return rxShare*rx + (1-rxShare)*tx }

func fidelity(name string, replay, run float64) string {
	return fmt.Sprintf("replay fidelity    %-22s %10.4g %10.4g", name, replay, run)
}
