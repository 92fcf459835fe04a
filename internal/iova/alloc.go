package iova

import (
	"fmt"
	"math/bits"

	"fastsafe/internal/ptable"
)

// Stats counts allocator work, split so the simulator can charge different
// CPU costs to tree operations (expensive: locking plus rebalancing plus
// worst-case linear gap scans) and magazine operations (cheap).
type Stats struct {
	TreeAllocs   int64 // allocations served by the red-black tree
	TreeFrees    int64 // frees returned to the red-black tree
	NodesVisited int64 // tree nodes touched while searching for gaps
	CacheAllocs  int64 // allocations served by a per-CPU magazine
	CacheFrees   int64 // frees absorbed by a per-CPU magazine
	DepotMoves   int64 // magazines moved to/from the global depot
	// The depot-full overflow path: when a CPU's magazines and the global
	// depot are all full, the loaded magazine is flushed back to the tree
	// — the rcache has stopped absorbing the free rate and every flushed
	// range pays tree cost again. OverflowFlushes counts magazine flushes,
	// OverflowFrees the individual ranges they returned to the tree.
	OverflowFlushes int64
	OverflowFrees   int64
}

// Sub returns the per-field difference s - b (for measurement windows).
func (s Stats) Sub(b Stats) Stats {
	return Stats{
		TreeAllocs:      s.TreeAllocs - b.TreeAllocs,
		TreeFrees:       s.TreeFrees - b.TreeFrees,
		NodesVisited:    s.NodesVisited - b.NodesVisited,
		CacheAllocs:     s.CacheAllocs - b.CacheAllocs,
		CacheFrees:      s.CacheFrees - b.CacheFrees,
		DepotMoves:      s.DepotMoves - b.DepotMoves,
		OverflowFlushes: s.OverflowFlushes - b.OverflowFlushes,
		OverflowFrees:   s.OverflowFrees - b.OverflowFrees,
	}
}

// TreeAllocator allocates IOVA ranges top-down from the top of the 48-bit
// space, keeping allocated ranges in a red-black tree. This mirrors the
// base Linux allocator: the active IOVA set stays compact at the top of the
// address space (§2.2 uses this to bound PTcache-L1/L2 working sets).
type TreeAllocator struct {
	tree   rbtree
	topPFN uint64 // first PFN above the allocatable space
	hint   *node  // last allocation, search cursor (Linux cached node)
	stats  Stats
}

// NewTree returns a TreeAllocator covering the full 48-bit IOVA space.
func NewTree() *TreeAllocator {
	return &TreeAllocator{topPFN: ptable.AddrSpace >> ptable.PageShift}
}

// Stats returns a snapshot of the allocator's work counters.
func (a *TreeAllocator) Stats() Stats { return a.stats }

// Alloc carves a range of pages 4KB-pages from the highest free gap at or
// below the allocation hint, falling back to a full top-down scan. cpu is
// ignored.
func (a *TreeAllocator) Alloc(_, pages int) (ptable.IOVA, bool) {
	if pages <= 0 {
		return 0, false
	}
	n := a.allocRange(uint64(pages))
	if n == nil {
		return 0, false
	}
	a.stats.TreeAllocs++
	return ptable.IOVA(n.start << ptable.PageShift), true
}

func (a *TreeAllocator) allocRange(npages uint64) *node {
	try := func(from *node) *node {
		// Candidate gap is immediately below `from` (or below the top of
		// space when from is nil), walking toward lower addresses.
		limit := a.topPFN
		cur := from
		if cur == nil {
			cur = a.tree.maximum(a.tree.root)
		} else {
			limit = cur.start
			cur = a.tree.predecessor(cur)
		}
		for {
			a.stats.NodesVisited++
			var gapLo uint64
			if cur != nil {
				gapLo = cur.end()
				limitStart := limit
				if limitStart >= gapLo+npages {
					n := &node{start: limitStart - npages, npages: npages}
					a.tree.insert(n)
					return n
				}
				limit = cur.start
				cur = a.tree.predecessor(cur)
				continue
			}
			// Below the lowest allocated range.
			if limit >= gapLo+npages {
				n := &node{start: limit - npages, npages: npages}
				a.tree.insert(n)
				return n
			}
			return nil
		}
	}
	// Fast path: search below the hint (Linux's cached node). On failure
	// retry from the very top, where frees above the hint opened gaps.
	if n := try(a.hint); n != nil {
		a.hint = n
		return n
	}
	if a.hint != nil {
		if n := try(nil); n != nil {
			a.hint = n
			return n
		}
	}
	return nil
}

// Free returns a previously allocated range to the tree; a range that
// matches no allocation is a programming error and panics.
func (a *TreeAllocator) Free(_ int, base ptable.IOVA, pages int) {
	pfn := uint64(base) >> ptable.PageShift
	n := a.tree.find(pfn)
	if n == nil || n.start != pfn || n.npages != uint64(pages) {
		panic(fmt.Sprintf("iova: Free(%v, %d pages) does not match an allocation", base, pages))
	}
	// Linux's __cached_rbnode_delete_update: freeing at or above the
	// cached hint moves the hint to the freed node's successor so the
	// next allocation rediscovers the gap.
	if a.hint == nil || n.start >= a.hint.start {
		a.hint = a.tree.successor(n)
	}
	a.tree.remove(n)
	a.stats.TreeFrees++
}

// Magazine geometry, matching the Linux iova rcache.
const (
	// MagSize is the number of IOVAs per magazine (IOVA_MAG_SIZE).
	MagSize = 127
	// MaxGlobalMags bounds the global depot (MAX_GLOBAL_MAGS).
	MaxGlobalMags = 32
	// MaxCachedOrder is the largest power-of-two size class cached: order 6
	// = 64 pages = 256KB, covering both 4KB page allocations and F&S
	// descriptor-sized chunks.
	MaxCachedOrder = 6
)

// magazine is a LIFO stack of IOVA range bases of one size class.
type magazine struct {
	pfns [MagSize]uint64
	n    int
}

func (m *magazine) full() bool  { return m.n == MagSize }
func (m *magazine) empty() bool { return m.n == 0 }
func (m *magazine) push(pfn uint64) {
	m.pfns[m.n] = pfn
	m.n++
}
func (m *magazine) pop() uint64 {
	m.n--
	return m.pfns[m.n]
}

// cpuRCache is one CPU's pair of magazines for one size class.
type cpuRCache struct {
	loaded *magazine
	prev   *magazine
}

// rcache is the per-size-class cache: per-CPU magazine pairs plus the
// global depot of full magazines.
type rcache struct {
	percpu []*cpuRCache
	depot  []*magazine
	// spare holds emptied magazines — swapped out for a depot one, or
	// drained by FlushRCaches — for Free to load when it next spills to
	// the depot: Linux frees and reallocates them, the simulator reuses
	// them so a warm allocator allocates nothing.
	spare []*magazine
}

// CachedAllocator is the Linux allocator with the per-CPU rcache front-end
// (§2.1 "IOVA Allocator"). Allocation sizes are rounded up to a power of
// two; classes up to MaxCachedOrder go through the magazines, larger sizes
// go straight to the tree.
type CachedAllocator struct {
	base    *TreeAllocator
	caches  [MaxCachedOrder + 1]*rcache
	numCPUs int
	stats   Stats
}

// NewCached returns a cached allocator with per-CPU magazines for numCPUs
// CPUs over a fresh top-down tree allocator.
func NewCached(numCPUs int) *CachedAllocator {
	if numCPUs <= 0 {
		numCPUs = 1
	}
	a := &CachedAllocator{base: NewTree(), numCPUs: numCPUs}
	for o := range a.caches {
		rc := &rcache{percpu: make([]*cpuRCache, numCPUs)}
		for c := range rc.percpu {
			rc.percpu[c] = &cpuRCache{loaded: new(magazine), prev: new(magazine)}
		}
		a.caches[o] = rc
	}
	return a
}

// Stats returns combined counters: magazine activity from the front-end
// plus tree activity from the base allocator.
func (a *CachedAllocator) Stats() Stats {
	s := a.stats
	bs := a.base.Stats()
	s.TreeAllocs = bs.TreeAllocs
	s.TreeFrees = bs.TreeFrees
	s.NodesVisited = bs.NodesVisited
	return s
}

// order returns the size class for pages, or -1 if not cacheable.
func order(pages int) int {
	if pages <= 0 {
		return -1
	}
	o := bits.Len(uint(pages) - 1) // ceil(log2(pages))
	if o > MaxCachedOrder {
		return -1
	}
	return o
}

// roundPages rounds a page count up to the next power of two, as
// alloc_iova_fast does.
func roundPages(pages int) int {
	if pages <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(pages)-1)
}

// Alloc allocates a power-of-two-rounded range of pages for cpu.
func (a *CachedAllocator) Alloc(cpu, pages int) (ptable.IOVA, bool) {
	if pages <= 0 {
		return 0, false
	}
	pages = roundPages(pages)
	o := order(pages)
	if o < 0 || cpu < 0 || cpu >= a.numCPUs {
		return a.base.Alloc(cpu, pages)
	}
	rc := a.caches[o]
	pc := rc.percpu[cpu]
	switch {
	case !pc.loaded.empty():
	case !pc.prev.empty():
		pc.loaded, pc.prev = pc.prev, pc.loaded
	case len(rc.depot) > 0:
		rc.spare = append(rc.spare, pc.loaded)
		pc.loaded = rc.depot[len(rc.depot)-1]
		rc.depot = rc.depot[:len(rc.depot)-1]
		a.stats.DepotMoves++
	default:
		return a.base.Alloc(cpu, pages)
	}
	a.stats.CacheAllocs++
	return ptable.IOVA(pc.loaded.pop() << ptable.PageShift), true
}

// Free returns a range to cpu's magazine, spilling full magazines to the
// depot and, when the depot is full, back to the tree.
func (a *CachedAllocator) Free(cpu int, base ptable.IOVA, pages int) {
	pages = roundPages(pages)
	o := order(pages)
	if o < 0 || cpu < 0 || cpu >= a.numCPUs {
		a.base.Free(cpu, base, pages)
		return
	}
	rc := a.caches[o]
	pc := rc.percpu[cpu]
	switch {
	case !pc.loaded.full():
	case !pc.prev.full():
		pc.loaded, pc.prev = pc.prev, pc.loaded
	default:
		if len(rc.depot) < MaxGlobalMags {
			rc.depot = append(rc.depot, pc.loaded)
			if n := len(rc.spare); n > 0 {
				pc.loaded = rc.spare[n-1]
				rc.spare = rc.spare[:n-1]
			} else {
				pc.loaded = new(magazine)
			}
			a.stats.DepotMoves++
		} else {
			// Depot full: flush the loaded magazine back to the tree.
			a.stats.OverflowFlushes++
			for !pc.loaded.empty() {
				pfn := pc.loaded.pop()
				a.base.Free(cpu, ptable.IOVA(pfn<<ptable.PageShift), pages)
				a.stats.OverflowFrees++
			}
		}
	}
	pc.loaded.push(uint64(base) >> ptable.PageShift)
	a.stats.CacheFrees++
}

// FlushRCaches empties every per-CPU magazine and the global depots back
// into the tree, returning the number of IOVA ranges released. This is
// Linux's free_cpu_cached_iovas/free_global_cached_iovas path, run on CPU
// hotplug and under allocation pressure; the fault layer triggers it to
// model rcache-defeating pressure spikes.
func (a *CachedAllocator) FlushRCaches() int {
	released := 0
	for o, rc := range a.caches {
		pages := 1 << o
		drain := func(m *magazine) {
			for !m.empty() {
				pfn := m.pop()
				a.base.Free(0, ptable.IOVA(pfn<<ptable.PageShift), pages)
				released++
			}
		}
		for _, pc := range rc.percpu {
			drain(pc.loaded)
			drain(pc.prev)
		}
		for _, m := range rc.depot {
			drain(m)
		}
		rc.spare = append(rc.spare, rc.depot...)
		rc.depot = rc.depot[:0]
	}
	return released
}
