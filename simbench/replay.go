package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fastsafe/internal/ats"
	"fastsafe/internal/cohort"
	"fastsafe/internal/core"
	"fastsafe/internal/fabric"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/iommu"
	"fastsafe/internal/iova"
	"fastsafe/internal/pcie"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

// Each replay builds a fresh instance of one layer through its
// constructor and times that layer's public calls in batches, one span
// per batch, using the workload's op mix: mode, descriptor pages, CPU
// count, ATS size and request sizes from the workload's configuration,
// and pending depth, hit ratios and sizes from the traced run.

// replayBatches is the number of timed batches per call; the replay
// reports the median batch.
const replayBatches = 7

// cost is the host cost of one replayed call.
type cost struct{ ns, allocs float64 }

type replayer struct {
	tr  *tracer
	rng *rand.Rand
	// shrink divides every batch size; tests set it to keep replays short
	// under the race detector.
	shrink int
}

// ops returns the batch size for a replay that makes n calls per batch.
func (r *replayer) ops(n int) int {
	if r.shrink > 1 {
		n /= r.shrink
	}
	if n < 16 {
		n = 16
	}
	return n
}

// measure times one batch of n calls made by fn, in its own span.
func (r *replayer) measure(parent int, name string, n int, fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := r.tr.begin(parent, name)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	r.tr.end(id, map[string]float64{"calls": float64(n)})
	runtime.ReadMemStats(&m1)
	return cost{float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// repeat runs replayBatches batches (prep, untimed, then the timed fn)
// and returns the median batch cost.
func (r *replayer) repeat(parent int, name string, n int, prep func(), fn func()) cost {
	var ns, al []float64
	for b := 0; b < replayBatches; b++ {
		if prep != nil {
			prep()
		}
		c := r.measure(parent, name, n, fn)
		ns = append(ns, c.ns)
		al = append(al, c.allocs)
	}
	return cost{median(ns), median(al)}
}

// stream returns n page-aligned addresses drawn from pages such that a
// fraction hit of them repeat the previous address — served from
// whichever cache the previous access filled — and the rest are uniform
// draws over pages, which the small caches almost never hold.
func stream(rng *rand.Rand, pages []ptable.IOVA, hit float64, n int) []ptable.IOVA {
	out := make([]ptable.IOVA, n)
	prev := pages[0]
	for i := range out {
		if rng.Float64() >= hit {
			prev = pages[rng.Intn(len(pages))]
		}
		out[i] = prev
	}
	return out
}

// mappedPages maps n consecutive pages from base into t.
func mappedPages(t *ptable.Table, base ptable.IOVA, n int) []ptable.IOVA {
	out := make([]ptable.IOVA, n)
	for i := range out {
		out[i] = base + ptable.IOVA(i*ptable.PageSize)
		if err := t.Map(out[i], ptable.Phys(uint64(i+1)<<ptable.PageShift)); err != nil {
			panic(err) // fresh table, disjoint pages
		}
	}
	return out
}

// replayBase is where replays place their mappings: 32K pages span 64
// PTcache-L3 regions, twice the default PTcache-L3 capacity.
const (
	replayBase  = ptable.IOVA(1 << 46)
	replayPages = 1 << 15
)

// mix is the traced run's op mix that replays reuse.
type mix struct {
	iotlbHit, atsHit, rcacheHit float64
	pending                     int
	invPages                    int     // pages per invalidation request
	allocPages                  int     // pages per IOVA allocation
	livePages                   int     // live IOVA mappings at the end of the run
	dmaBytes                    int     // mean bytes per DMA
	dmaReads                    float64 // mean page-table reads per DMA
	markFrac                    float64 // ECN-marked share of transport segments
	rxPageShare                 float64 // Rx-descriptor share of mapped pages
	txPages                     int     // pages per Tx packet mapping
}

func newMix(w *workload, win *window) mix {
	c := win.counts
	m := mix{
		iotlbHit:  ratio(c["iotlb_hits"], c["iotlb_hits"]+c["iotlb_misses"]),
		atsHit:    ratio(c["ats_hits"], c["ats_lookups"]),
		rcacheHit: ratio(c["iova_cache_allocs"], c["iova_cache_allocs"]+c["iova_tree_allocs"]),
		pending:   int(math.Round(c["pending"] / float64(win.slices))),
		invPages:  int(math.Round(ratio(c["pages_unmapped"], c["inv_requests"]))),
		allocPages: int(math.Round(ratio(c["pages_mapped"],
			c["iova_cache_allocs"]+c["iova_tree_allocs"]))),
		livePages: int(c["live_mappings"]),
		dmaBytes:  int(ratio(c["pcie_bytes"], c["dmas"])),
		dmaReads:  ratio(c["pcie_reads"], c["dmas"]),
		markFrac:  ratio(c["nic_marked"]+c["fabric_marked"], c["nic_arrived"]+c["fabric_packets"]),
	}
	if mapped := c["pages_mapped"]; mapped > 0 {
		m.rxPageShare = math.Min(1, c["rx_descs_unmapped"]*float64(w.descPages)/mapped)
		m.txPages = int(math.Round(ratio((1-m.rxPageShare)*mapped, c["tx_pkts_mapped"])))
	}
	if m.txPages < 1 {
		m.txPages = 1
	}
	if m.pending < 1 {
		m.pending = 1
	}
	m.invPages = clamp(m.invPages, 1, w.descPages)
	if m.allocPages < 1 {
		m.allocPages = 1
	}
	m.livePages = clamp(m.livePages, 1024, replayPages)
	if m.dmaBytes < 64 {
		m.dmaBytes = 64
	}
	return m
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// replays holds every replayed cost plus the ratios the replays produced.
type replays struct {
	costs    map[string]cost
	produced map[string]float64 // ratio name -> value the replay produced
	children map[string]float64 // per-page child calls of the core replays
}

func replayLayers(w *workload, seed int64, m mix, tr *tracer, shrink int) *replays {
	r := &replayer{tr: tr, rng: rand.New(rand.NewSource(seed)), shrink: shrink}
	out := &replays{costs: map[string]cost{}, produced: map[string]float64{}, children: map[string]float64{}}
	layer := func(name string, fn func(parent int)) {
		id := tr.begin(0, "replay "+name)
		fn(id)
		tr.end(id, nil)
	}
	layer("sim", func(p int) { replaySim(r, p, seed, m, out) })
	layer("ptable", func(p int) { replayPtable(r, p, w, m, out) })
	layer("iova", func(p int) { replayIOVA(r, p, w, m, out) })
	layer("iommu", func(p int) { replayIOMMU(r, p, w, m, out) })
	layer("ats", func(p int) { replayATS(r, p, w, m, out) })
	layer("core", func(p int) { replayCore(r, p, w, seed, m, out) })
	layer("pcie", func(p int) { replayPCIe(r, p, seed, m, out) })
	layer("transport", func(p int) { replayTransport(r, p, m, out) })
	layer("fabric", func(p int) { replayFabric(r, p, seed, m, out) })
	layer("cohort", func(p int) { replayCohort(r, p, w, seed, out) })
	layer("stats", func(p int) { replayStats(r, p, out) })
	layer("fault", func(p int) { replayFault(r, p, w, m, out) })
	return out
}

// replaySim times Engine.At+Step at the workload's mean pending depth,
// and Shards.Post+Run rounds of a two-shard ping-pong.
func replaySim(r *replayer, parent int, seed int64, m mix, out *replays) {
	n := r.ops(1 << 16)
	e := sim.NewEngine(seed)
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = sim.Duration(1 + r.rng.Int63n(int64(2000*m.pending)))
	}
	k := 0
	var fire func()
	fire = func() {
		e.After(delays[k&4095], fire)
		k++
	}
	for i := 0; i < m.pending; i++ {
		fire()
	}
	out.produced["sim.pending_mean"] = float64(e.Pending())
	out.costs["sim.event"] = r.repeat(parent, "Engine.At+Step", n, nil, func() {
		for i := 0; i < n; i++ {
			e.Step()
		}
	})

	const la = sim.Microsecond
	sh := sim.NewShards(2, seed, la)
	var ping, pong func()
	ping = func() {
		now := sh.Engine(0).Now()
		sh.Post(0, 1, now, now+la, pong)
	}
	pong = func() {
		now := sh.Engine(1).Now()
		sh.Post(1, 0, now, now+la, ping)
	}
	sh.Engine(0).At(0, ping)
	sh.Engine(1).At(0, pong)
	rounds := r.ops(1 << 12)
	deadline := sim.Time(0)
	out.costs["sim.round"] = r.repeat(parent, "Shards.Post+Run", rounds, nil, func() {
		deadline += sim.Time(rounds) * la
		sh.Run(deadline - 1) // one round per la: both shards fire and post
	})
}

// replayPtable times Map and Unmap per page, unmapping in the ranges the
// workload's policy uses, and Lookup over a mapped working set.
func replayPtable(r *replayer, parent int, w *workload, m mix, out *replays) {
	n := r.ops(1 << 15)
	t := ptable.New()
	live := mappedPages(t, replayBase, m.livePages)
	fresh := replayBase + ptable.IOVA(replayPages*ptable.PageSize)
	span := 1 // pages per Unmap call: paged policies unmap page by page
	if w.mode.Contiguous() {
		span = w.descPages
	}
	var maps, unmaps []float64
	var mapAllocs []float64
	for b := 0; b < replayBatches; b++ {
		// The fresh range is unmapped between batches, so neither call
		// can fail.
		c := r.measure(parent, "Table.Map", n, func() {
			for i := 0; i < n; i++ {
				_ = t.Map(fresh+ptable.IOVA(i*ptable.PageSize), ptable.Phys(uint64(i+1)<<ptable.PageShift))
			}
		})
		maps, mapAllocs = append(maps, c.ns), append(mapAllocs, c.allocs)
		c = r.measure(parent, fmt.Sprintf("Table.Unmap(%d pages)", span), n, func() {
			for i := 0; i < n; i += span {
				_, _ = t.Unmap(fresh+ptable.IOVA(i*ptable.PageSize), uint64(span*ptable.PageSize))
			}
		})
		unmaps = append(unmaps, c.ns)
	}
	out.costs["ptable.map"] = cost{median(maps), median(mapAllocs)}
	out.costs["ptable.unmap"] = cost{median(unmaps), 0}
	idx := make([]ptable.IOVA, n)
	for i := range idx {
		idx[i] = live[r.rng.Intn(len(live))]
	}
	out.costs["ptable.lookup"] = r.repeat(parent, "Table.Lookup", n, nil, func() {
		for _, v := range idx {
			t.Lookup(v)
		}
	})
}

// replayIOVA times CachedAllocator.Alloc and Free of the workload's
// allocation size, over a FIFO population of live ranges the size of the
// workload's live mappings. A share rcacheHit of the calls go through a
// CPU whose magazines the FIFO keeps stocked; the rest bypass the
// magazines to the tree, the path an rcache miss takes.
func replayIOVA(r *replayer, parent int, w *workload, m mix, out *replays) {
	n := r.ops(1 << 12)
	a := iova.NewCached(w.cpus)
	type live struct {
		base ptable.IOVA
		cpu  int
	}
	var fifo []live
	cpuOf := func() int {
		if r.rng.Float64() < m.rcacheHit {
			return 0
		}
		return -1
	}
	alloc := func(cpu int) {
		v, ok := a.Alloc(cpu, m.allocPages)
		if !ok {
			panic("simbench: IOVA space exhausted in replay")
		}
		fifo = append(fifo, live{v, cpu})
	}
	free := func() {
		x := fifo[0]
		fifo = fifo[1:]
		a.Free(x.cpu, x.base, m.allocPages)
	}
	for len(fifo) < m.livePages/m.allocPages+n {
		alloc(cpuOf())
	}
	for i := 0; i < n; i++ { // stock the magazines
		free()
	}
	cpus := make([]int, n)
	s0 := a.Stats()
	var al, fr []float64
	for b := 0; b < replayBatches; b++ {
		for i := range cpus {
			cpus[i] = cpuOf()
		}
		c := r.measure(parent, "CachedAllocator.Alloc", n, func() {
			for _, cpu := range cpus {
				alloc(cpu)
			}
		})
		al = append(al, c.ns)
		c = r.measure(parent, "CachedAllocator.Free", n, func() {
			for i := 0; i < n; i++ {
				free()
			}
		})
		fr = append(fr, c.ns)
	}
	s1 := a.Stats().Sub(s0)
	out.produced["iova.rcache_hit_frac"] = ratio(float64(s1.CacheAllocs), float64(s1.CacheAllocs+s1.TreeAllocs))
	out.costs["iova.alloc"] = cost{median(al), 0}
	out.costs["iova.free"] = cost{median(fr), 0}
}

// replayIOMMU times TranslateIn on the walk path at the workload's IOTLB
// hit ratio, InvalidateIn of the workload's request size, and the
// capability check.
func replayIOMMU(r *replayer, parent int, w *workload, m mix, out *replays) {
	n := r.ops(1 << 14)
	mmu := iommu.New(iommu.Config{})
	pages := mappedPages(mmu.TableOf(0), replayBase, replayPages)
	s := stream(r.rng, pages, m.iotlbHit, n*replayBatches)
	c0 := mmu.Counters()
	b := 0
	out.costs["iommu.translate"] = r.repeat(parent, "IOMMU.TranslateIn", n, nil, func() {
		for _, v := range s[b*n : (b+1)*n] {
			mmu.TranslateIn(0, v)
		}
		b++
	})
	c1 := mmu.Counters()
	out.produced["iommu.iotlb_hit_frac"] = ratio(float64(c1.IOTLBHits-c0.IOTLBHits), float64(c1.Translations-c0.Translations))

	ni := r.ops(1 << 10)
	iotlbOnly := w.mode.PreservesPTCaches()
	bases := make([]ptable.IOVA, ni)
	for i := range bases {
		bases[i] = pages[r.rng.Intn(len(pages)-m.invPages)]
	}
	out.costs["iommu.invalidate"] = r.repeat(parent, fmt.Sprintf("IOMMU.InvalidateIn(%d pages)", m.invPages), ni,
		func() {
			for _, v := range s[:ni] {
				mmu.TranslateIn(0, v)
			}
		},
		func() {
			for _, v := range bases {
				mmu.InvalidateIn(0, v, m.invPages, iotlbOnly)
			}
		})

	d := mmu.CreateDomain()
	caps := capStream(r, mmu, d, n)
	out.costs["iommu.cap_check"] = r.repeat(parent, "IOMMU.TranslateIn(cap)", n, nil, func() {
		for _, v := range caps {
			mmu.TranslateIn(d, v)
		}
	})
}

// capStream attaches a capability table to domain d, grants a working
// set and returns n granted addresses to check.
func capStream(r *replayer, mmu *iommu.IOMMU, d iommu.DomainID, n int) []ptable.IOVA {
	ct := mmu.AttachCapTable(d)
	pages := make([]ptable.IOVA, 4096)
	for i := range pages {
		pages[i] = replayBase + ptable.IOVA(i*ptable.PageSize)
		ct.Grant(pages[i], ptable.Phys(uint64(i+1)<<ptable.PageShift))
	}
	s := make([]ptable.IOVA, n)
	for i := range s {
		s[i] = pages[r.rng.Intn(len(pages))]
	}
	return s
}

// replayATS times the device TLB's Translate at the workload's ATC hit
// ratio and its Invalidate of the workload's request size. The IOMMU
// calls they forward are counted, so the benchmark can subtract them.
func replayATS(r *replayer, parent int, w *workload, m mix, out *replays) {
	n := r.ops(1 << 14)
	entries := w.ats
	if entries == 0 {
		entries = 1024
	}
	mmu := iommu.New(iommu.Config{})
	d := mmu.CreateDomain()
	pages := mappedPages(mmu.TableOf(d), replayBase, replayPages)
	atc := ats.New(mmu, d, mmu.TranslatorOf(d), ats.Config{Entries: entries})
	s := stream(r.rng, pages, m.atsHit, n*replayBatches)
	a0, c0 := atc.Counters(), mmu.Counters()
	b := 0
	out.costs["ats.translate"] = r.repeat(parent, "Cache.Translate", n, nil, func() {
		for _, v := range s[b*n : (b+1)*n] {
			atc.Translate(v)
		}
		b++
	})
	a1, c1 := atc.Counters(), mmu.Counters()
	out.produced["ats.hit_frac"] = ratio(float64(a1.Hits-a0.Hits), float64(a1.Lookups-a0.Lookups))
	out.children["ats.translate.iommu"] = ratio(float64(c1.Translations-c0.Translations), float64(a1.Lookups-a0.Lookups))

	ni := r.ops(1 << 10)
	iotlbOnly := w.mode.PreservesPTCaches()
	bases := s[:ni]
	out.costs["ats.invalidate"] = r.repeat(parent, fmt.Sprintf("Cache.Invalidate(%d pages)", m.invPages), ni,
		func() {
			for _, v := range s[ni : 2*ni] {
				atc.Translate(v)
			}
		},
		func() {
			for _, v := range bases {
				if int(v-replayBase)/ptable.PageSize+m.invPages > replayPages {
					v = replayBase
				}
				atc.Invalidate(v, m.invPages, iotlbOnly)
			}
		})
}

// replayCore times the workload's policy through a fresh protection
// domain configured like the NIC's: Rx descriptor map/unmap, window
// remap, and Tx packet map/unmap at the workload's packet size, each per
// page. It also counts the child calls the domain makes per page, so
// their replayed costs can be subtracted.
func replayCore(r *replayer, parent int, w *workload, seed int64, m mix, out *replays) {
	d, err := core.NewDomain(core.Config{
		Mode: w.mode, NumCPUs: w.cpus, DescriptorPages: w.descPages,
		TxFreeCPUShift: 1, FreePoolSize: 8192, Seed: seed,
		ATS: ats.Config{Entries: w.ats},
	})
	if err != nil {
		panic(err) // the workload's own mode and sizes
	}
	const cores = 5
	type counts struct {
		dom   core.Counters
		alloc iova.Stats
	}
	read := func() counts { return counts{dom: d.Counters(), alloc: d.AllocatorStats()} }
	// children records the child calls per page of one full op cycle
	// (map plus unmap, or one remap) between two reads.
	children := func(op string, a, b counts, pages float64) {
		out.children[op+".iova_alloc"] = float64(b.alloc.CacheAllocs+b.alloc.TreeAllocs-a.alloc.CacheAllocs-a.alloc.TreeAllocs) / pages
		out.children[op+".iova_free"] = float64(b.alloc.CacheFrees+b.alloc.TreeFrees-a.alloc.CacheFrees-a.alloc.TreeFrees) / pages
		out.children[op+".ptable_map"] = float64(b.dom.PagesMapped-a.dom.PagesMapped) / pages
		out.children[op+".ptable_unmap"] = float64(b.dom.PagesUnmapped-a.dom.PagesUnmapped) / pages
		out.children[op+".inv"] = float64(b.dom.InvRequests-a.dom.InvRequests) / pages
	}

	// Rx descriptors: map a batch, then unmap it.
	nd := r.ops(64)
	descs := make([]*core.Descriptor, nd)
	rxMap := func() {
		for i := range descs {
			if descs[i], _, err = d.MapRxDescriptor(i % cores); err != nil {
				panic(err)
			}
		}
	}
	rxUnmap := func() {
		for _, desc := range descs {
			if _, err := d.UnmapRxDescriptor(desc); err != nil {
				panic(err)
			}
		}
	}
	// The device DMAs into every page before the driver unmaps it, so the
	// caches an invalidation shoots down hold the buffer's translations.
	rxTouch := func() {
		for _, desc := range descs {
			for _, v := range desc.IOVAs {
				d.Translate(v)
			}
		}
	}
	for i := 0; i < 4; i++ { // fill the free pool and the magazines
		rxMap()
		rxUnmap()
	}
	pages := float64(nd * w.descPages)
	var mapNs, mapAl, unNs []float64
	c0 := read()
	for b := 0; b < replayBatches; b++ {
		c := r.measure(parent, "Domain.MapRxDescriptor", nd, rxMap)
		mapNs, mapAl = append(mapNs, c.ns*float64(nd)/pages), append(mapAl, c.allocs*float64(nd)/pages)
		rxTouch()
		c = r.measure(parent, "Domain.UnmapRxDescriptor", nd, rxUnmap)
		unNs = append(unNs, c.ns*float64(nd)/pages)
	}
	c1 := read()
	out.costs["core.rx_map"] = cost{median(mapNs), median(mapAl)}
	out.costs["core.rx_unmap"] = cost{median(unNs), 0}
	children("core.rx", c0, c1, pages*replayBatches)

	// Registered-window rotation.
	rxMap()
	c0 = read()
	out.costs["core.remap"] = r.repeat(parent, "Domain.RemapRxDescriptor", nd, rxTouch, func() {
		for _, desc := range descs {
			if _, err := d.RemapRxDescriptor(desc); err != nil {
				panic(err)
			}
		}
	})
	c1 = read()
	rc := out.costs["core.remap"]
	out.costs["core.remap"] = cost{rc.ns / float64(w.descPages), rc.allocs / float64(w.descPages)}
	children("core.remap", c0, c1, pages*replayBatches)
	rxUnmap()

	// Tx packets of the workload's size.
	nt := r.ops(1024)
	txs := make([]*core.TxMapping, nt)
	txMap := func() {
		for i := range txs {
			if txs[i], _, err = d.MapTx(i%cores, m.txPages); err != nil {
				panic(err)
			}
		}
	}
	txUnmap := func() {
		for _, t := range txs {
			if _, err := d.UnmapTx(t); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		txMap()
		txUnmap()
	}
	tpages := float64(nt * m.txPages)
	mapNs, mapAl, unNs = nil, nil, nil
	c0 = read()
	for b := 0; b < replayBatches; b++ {
		c := r.measure(parent, "Domain.MapTx", nt, txMap)
		mapNs, mapAl = append(mapNs, c.ns*float64(nt)/tpages), append(mapAl, c.allocs*float64(nt)/tpages)
		for _, t := range txs {
			for _, v := range t.IOVAs {
				d.Translate(v)
			}
		}
		c = r.measure(parent, "Domain.UnmapTx", nt, txUnmap)
		unNs = append(unNs, c.ns*float64(nt)/tpages)
	}
	c1 = read()
	out.costs["core.tx_map"] = cost{median(mapNs), median(mapAl)}
	out.costs["core.tx_unmap"] = cost{median(unNs), 0}
	children("core.tx", c0, c1, tpages*replayBatches)
}

// replayPCIe times Link.Submit through its done callback, with a walker
// shared like the host's, at the workload's mean DMA size and
// page-table reads. The engine events it schedules are counted.
func replayPCIe(r *replayer, parent int, seed int64, m mix, out *replays) {
	n := r.ops(1 << 14)
	e := sim.NewEngine(seed)
	walker := pcie.NewWalker(e, 197)
	link := pcie.New(e, 65, 197, 128)
	link.AttachWalker(walker)
	reads := make([]int, n)
	for i := range reads {
		reads[i] = int(m.dmaReads)
		if r.rng.Float64() < m.dmaReads-math.Floor(m.dmaReads) {
			reads[i]++
		}
	}
	done := func() {}
	f0 := e.Fired()
	out.costs["pcie.submit"] = r.repeat(parent, "Link.Submit", n, nil, func() {
		for i, rd := range reads {
			link.Submit(m.dmaBytes, rd, done)
			if i%4 == 3 {
				e.RunAll()
			}
		}
		e.RunAll()
	})
	out.children["pcie.events"] = float64(e.Fired()-f0) / float64(n*replayBatches)
}

// replayTransport times one DCTCP segment through a Sender/Receiver
// pair: send, receive with the workload's ECN mark share, and the ACK.
func replayTransport(r *replayer, parent int, m mix, out *replays) {
	n := r.ops(1 << 15)
	snd := transport.NewSender(transport.Params{})
	rcv := transport.NewReceiver(transport.Params{})
	marks := make([]bool, 4096)
	for i := range marks {
		marks[i] = r.rng.Float64() < m.markFrac
	}
	now := sim.Time(0)
	out.costs["transport.segment"] = r.repeat(parent, "Sender+Receiver segment", n, nil, func() {
		for i := 0; i < n; i++ {
			now += sim.Microsecond
			if !snd.CanSend() {
				if a := rcv.FlushAck(); a != nil {
					snd.OnAck(*a, now)
				}
			}
			seq, _ := snd.NextSend()
			snd.OnSent(seq, now)
			if _, a := rcv.OnData(seq, marks[i&4095]); a != nil {
				snd.OnAck(*a, now)
			}
		}
	})
}

// replayFabric times Port.Send through delivery on an 8-port switch,
// every other port sending into port 0 (an incast), at the workload's
// mean DMA size. The engine events it schedules are counted.
func replayFabric(r *replayer, parent int, seed int64, m mix, out *replays) {
	n := r.ops(1 << 14)
	e := sim.NewEngine(seed)
	sw, err := fabric.NewSwitch(e, 8, fabric.Config{})
	if err != nil {
		panic(err)
	}
	deliver := func(bool) {}
	f0 := e.Fired()
	out.costs["fabric.hop"] = r.repeat(parent, "Port.Send", n, nil, func() {
		for i := 0; i < n; i++ {
			sw.Port(1+i%7).Send(0, m.dmaBytes, deliver)
			if i%7 == 6 {
				e.RunAll()
			}
		}
		e.RunAll()
	})
	out.children["fabric.events"] = float64(e.Fired()-f0) / float64(n*replayBatches)
}

// replayCohort times Fleet.Next+Complete on the workload's serving fleet
// (the serving defaults where the workload runs none).
func replayCohort(r *replayer, parent int, w *workload, seed int64, out *replays) {
	n := r.ops(1 << 15)
	sc := host.ServeConfig{Conns: 48, Churn: 0.3, Cohort: 1}
	if w.fleet != nil {
		sc = *w.fleet
	}
	f, err := cohort.New(cohort.Config{
		Conns: sc.Conns, Cohort: sc.Cohort, Churn: sc.Churn,
		MeanGap: 40 * sim.Microsecond, ReqMax: 64 << 10, RespMax: 4 << 10, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	out.costs["cohort.arrival"] = r.repeat(parent, "Fleet.Next+Complete", n, nil, func() {
		for i := 0; i < n; i++ {
			t, _ := f.Peek()
			a, _ := f.Next(t)
			f.Complete(a, t, 20000)
		}
	})
}

// replayStats times Histogram.Observe over latencies spread from 64ns
// to 1ms.
func replayStats(r *replayer, parent int, out *replays) {
	n := r.ops(1 << 16)
	var h stats.Histogram
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(math.Exp(math.Log(64) + r.rng.Float64()*(math.Log(1e6)-math.Log(64))))
	}
	out.costs["stats.observe"] = r.repeat(parent, "Histogram.Observe", n, nil, func() {
		for i := 0; i < n; i++ {
			h.Observe(vals[i&4095])
		}
	})
}

// replayFault times the safety auditor as the difference between
// TranslateIn with fault.NewAuditor installed and without it, on the
// workload's translation path. One IOMMU serves both sides, which
// alternate batch by batch (the hook is removed with SetAuditHook(nil)),
// and the median of the per-pair differences is reported, so neither
// cache state nor a drift in host speed separates the two.
func replayFault(r *replayer, parent int, w *workload, m mix, out *replays) {
	const pairs = 4 * replayBatches
	n := r.ops(1 << 12)
	mmu := iommu.New(iommu.Config{})
	d := iommu.DomainID(0)
	var s []ptable.IOVA
	if w.mode == core.Cap {
		d = mmu.CreateDomain()
		s = capStream(r, mmu, d, n*pairs)
	} else {
		s = stream(r.rng, mappedPages(mmu.TableOf(0), replayBase, replayPages), m.iotlbHit, n*pairs)
	}
	var ns, al []float64
	for b := 0; b < pairs; b++ {
		batch := s[b*n : (b+1)*n]
		translate := func() {
			for _, v := range batch {
				mmu.TranslateIn(d, v)
			}
		}
		mmu.SetAuditHook(nil)
		without := r.measure(parent, "TranslateIn without auditor", n, translate)
		fault.NewAuditor(mmu)
		with := r.measure(parent, "TranslateIn with auditor", n, translate)
		ns, al = append(ns, with.ns-without.ns), append(al, with.allocs-without.allocs)
	}
	out.costs["fault.audit"] = cost{median(ns), median(al)}
}
