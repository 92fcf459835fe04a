package iova

import (
	"testing"
	"testing/quick"

	"fastsafe/internal/ptable"
	"fastsafe/internal/race"
)

func TestTreeAllocTopDown(t *testing.T) {
	a := NewTree()
	v1, ok := a.Alloc(0, 1)
	if !ok {
		t.Fatal("alloc failed")
	}
	if v1 != ptable.TopIOVA {
		t.Fatalf("first alloc = %v, want top page %v", v1, ptable.TopIOVA)
	}
	v2, _ := a.Alloc(0, 1)
	if v2 != v1-ptable.PageSize {
		t.Fatalf("second alloc = %v, want just below first", v2)
	}
}

func TestTreeAllocMultiPage(t *testing.T) {
	a := NewTree()
	v, ok := a.Alloc(0, 64)
	if !ok {
		t.Fatal("alloc failed")
	}
	if uint64(v)+64*ptable.PageSize != ptable.AddrSpace {
		t.Fatalf("64-page alloc = %#x, want flush against top", uint64(v))
	}
	if uint64(v)%ptable.PageSize != 0 {
		t.Fatal("allocation not page aligned")
	}
}

func TestTreeFreeAndReuse(t *testing.T) {
	a := NewTree()
	v1, _ := a.Alloc(0, 1)
	v2, _ := a.Alloc(0, 1)
	v3, _ := a.Alloc(0, 1)
	_ = v3
	a.Free(0, v1, 1)
	a.Free(0, v2, 1)
	// A 2-page allocation should fit in the freed gap at the top.
	v4, ok := a.Alloc(0, 2)
	if !ok {
		t.Fatal("alloc failed")
	}
	if v4 != v2 {
		t.Fatalf("alloc after free = %v, want reuse of top gap %v", v4, v2)
	}
}

func TestTreeCompactness(t *testing.T) {
	// Allocate many, free none: ranges must be contiguous from the top
	// (the compactness property §2.2 relies on).
	a := NewTree()
	lowest := ptable.IOVA(ptable.AddrSpace)
	for i := 0; i < 1000; i++ {
		v, ok := a.Alloc(0, 1)
		if !ok {
			t.Fatal("alloc failed")
		}
		if v < lowest {
			lowest = v
		}
	}
	if uint64(lowest) != ptable.AddrSpace-1000*ptable.PageSize {
		t.Fatalf("active set not compact: lowest = %#x", uint64(lowest))
	}
}

func TestTreeFreeMismatchPanics(t *testing.T) {
	a := NewTree()
	v, _ := a.Alloc(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Free did not panic")
		}
	}()
	a.Free(0, v, 2) // wrong size
}

func TestTreeFreeUnknownPanics(t *testing.T) {
	a := NewTree()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown Free did not panic")
		}
	}()
	a.Free(0, 0x1000, 1)
}

func TestTreeAllocZeroPages(t *testing.T) {
	a := NewTree()
	if _, ok := a.Alloc(0, 0); ok {
		t.Fatal("zero-page alloc succeeded")
	}
}

func TestTreeHintSkipsOverLowGaps(t *testing.T) {
	// After freeing a high range, a retry from the top must find it even
	// if the hint has moved far below.
	a := NewTree()
	var vs []ptable.IOVA
	for i := 0; i < 10; i++ {
		v, _ := a.Alloc(0, 1)
		vs = append(vs, v)
	}
	a.Free(0, vs[0], 1) // topmost page now free
	got, ok := a.Alloc(0, 1)
	if !ok {
		t.Fatal("alloc failed")
	}
	if got != vs[0] {
		t.Fatalf("alloc = %v, want reclaimed top page %v", got, vs[0])
	}
}

func TestPropertyTreeNoOverlap(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewTree()
		type alloc struct {
			v     ptable.IOVA
			pages int
		}
		var live []alloc
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				a.Free(0, live[i].v, live[i].pages)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			pages := int(op%8) + 1
			v, ok := a.Alloc(0, pages)
			if !ok {
				return false
			}
			// Overlap check against all live allocations.
			for _, l := range live {
				if uint64(v) < uint64(l.v)+uint64(l.pages)*ptable.PageSize &&
					uint64(l.v) < uint64(v)+uint64(pages)*ptable.PageSize {
					return false
				}
			}
			live = append(live, alloc{v, pages})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundPages(t *testing.T) {
	cases := [][2]int{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128}}
	for _, c := range cases {
		if got := roundPages(c[0]); got != c[1] {
			t.Errorf("roundPages(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestOrderClasses(t *testing.T) {
	if order(1) != 0 || order(2) != 1 || order(64) != 6 {
		t.Fatalf("order classes wrong: %d %d %d", order(1), order(2), order(64))
	}
	if order(128) != -1 {
		t.Fatal("order above MaxCachedOrder should be -1")
	}
	if order(0) != -1 {
		t.Fatal("order(0) should be -1")
	}
}

func TestCachedAllocRecyclesLIFO(t *testing.T) {
	a := NewCached(2)
	v1, _ := a.Alloc(0, 1)
	a.Free(0, v1, 1)
	v2, ok := a.Alloc(0, 1)
	if !ok {
		t.Fatal("alloc failed")
	}
	if v2 != v1 {
		t.Fatalf("magazine did not recycle LIFO: got %v, want %v", v2, v1)
	}
	s := a.Stats()
	if s.CacheAllocs != 1 || s.CacheFrees != 1 {
		t.Fatalf("stats = %+v, want one cache alloc and one cache free", s)
	}
}

func TestCachedPerCPUIsolation(t *testing.T) {
	a := NewCached(2)
	v, _ := a.Alloc(0, 1)
	a.Free(0, v, 1) // lands in CPU 0's magazine
	// CPU 1 cannot see CPU 0's magazine: it goes to the tree.
	v1, _ := a.Alloc(1, 1)
	if v1 == v {
		t.Fatal("CPU 1 alloc stole CPU 0's cached IOVA")
	}
	// CPU 0 still gets its cached one back.
	v0, _ := a.Alloc(0, 1)
	if v0 != v {
		t.Fatalf("CPU 0 did not get its cached IOVA: got %v want %v", v0, v)
	}
}

func TestCachedPrevMagazineSwap(t *testing.T) {
	a := NewCached(1)
	// Fill loaded (MagSize) plus one more: the overflow swaps to prev.
	var vs []ptable.IOVA
	for i := 0; i < MagSize+1; i++ {
		v, ok := a.Alloc(0, 1)
		if !ok {
			t.Fatal("alloc failed")
		}
		vs = append(vs, v)
	}
	for _, v := range vs {
		a.Free(0, v, 1)
	}
	// All must be reallocatable from magazines without touching the tree.
	treeBefore := a.Stats().TreeAllocs
	for i := 0; i < MagSize+1; i++ {
		if _, ok := a.Alloc(0, 1); !ok {
			t.Fatal("alloc failed")
		}
	}
	if a.Stats().TreeAllocs != treeBefore {
		t.Fatal("magazine+prev should have served all allocations")
	}
}

func TestCachedDepotSpill(t *testing.T) {
	a := NewCached(1)
	// Free 3 magazines' worth: loaded fills, swaps with prev, fills again,
	// spills to depot, fills again.
	n := 3 * MagSize
	var vs []ptable.IOVA
	for i := 0; i < n; i++ {
		v, ok := a.Alloc(0, 1)
		if !ok {
			t.Fatal("alloc failed")
		}
		vs = append(vs, v)
	}
	for _, v := range vs {
		a.Free(0, v, 1)
	}
	if a.Stats().DepotMoves == 0 {
		t.Fatal("expected a depot spill")
	}
	// Everything still allocatable from caches.
	treeBefore := a.Stats().TreeAllocs
	for i := 0; i < n; i++ {
		if _, ok := a.Alloc(0, 1); !ok {
			t.Fatal("alloc failed")
		}
	}
	if a.Stats().TreeAllocs != treeBefore {
		t.Fatal("depot should have served the overflow")
	}
}

// TestCachedDepotChurnAllocs: once warm, a CPU cache that spills full
// magazines to the depot and loads them back allocates nothing, because
// the magazines it empties are reused for the next spill.
func TestCachedDepotChurnAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	a := NewCached(1)
	vs := make([]ptable.IOVA, 0, 4*MagSize)
	churn := func() {
		for i := 0; i < 4*MagSize; i++ {
			v, ok := a.Alloc(0, 1)
			if !ok {
				t.Fatal("alloc failed")
			}
			vs = append(vs, v)
		}
		for _, v := range vs {
			a.Free(0, v, 1)
		}
		vs = vs[:0]
	}
	churn()
	moves := a.Stats().DepotMoves
	if n := testing.AllocsPerRun(10, churn); n != 0 {
		t.Errorf("depot churn: %v allocs a round, want 0", n)
	}
	if got := a.Stats().DepotMoves - moves; got != 11*4 {
		t.Fatalf("%d depot moves in 11 rounds, want 44 (two magazines out and back a round)", got)
	}
}

func TestCachedDepotFullFlushesToTree(t *testing.T) {
	a := NewCached(1)
	// Enough frees to overflow depot capacity: (MaxGlobalMags+3) magazines.
	n := (MaxGlobalMags + 3) * MagSize
	var vs []ptable.IOVA
	for i := 0; i < n; i++ {
		v, ok := a.Alloc(0, 1)
		if !ok {
			t.Fatal("alloc failed")
		}
		vs = append(vs, v)
	}
	for _, v := range vs {
		a.Free(0, v, 1)
	}
	if a.Stats().TreeFrees == 0 {
		t.Fatal("full depot should flush magazines back to the tree")
	}
}

func TestOverflowCountersTrackDepotFullFlushes(t *testing.T) {
	a := NewCached(1)
	// Capacity before overflow: loaded + prev + MaxGlobalMags magazines.
	n := (MaxGlobalMags + 4) * MagSize
	var vs []ptable.IOVA
	for i := 0; i < n; i++ {
		v, ok := a.Alloc(0, 1)
		if !ok {
			t.Fatal("alloc failed")
		}
		vs = append(vs, v)
	}
	for _, v := range vs[:2*MagSize] {
		a.Free(0, v, 1)
	}
	if s := a.Stats(); s.OverflowFlushes != 0 || s.OverflowFrees != 0 {
		t.Fatalf("overflow counters moved before the depot filled: %+v", s)
	}
	for _, v := range vs[2*MagSize:] {
		a.Free(0, v, 1)
	}
	s := a.Stats()
	if s.OverflowFlushes == 0 {
		t.Fatal("depot-full flushes not counted")
	}
	if want := s.OverflowFlushes * MagSize; s.OverflowFrees != want {
		t.Fatalf("OverflowFrees = %d, want %d (MagSize per flushed magazine)", s.OverflowFrees, want)
	}
	if s.TreeFrees != s.OverflowFrees {
		t.Fatalf("every overflow free must hit the tree: tree %d vs overflow %d", s.TreeFrees, s.OverflowFrees)
	}
	// Sub diffs field-wise, including the new counters.
	d := s.Sub(Stats{OverflowFlushes: 1, OverflowFrees: MagSize, CacheFrees: 10})
	if d.OverflowFlushes != s.OverflowFlushes-1 || d.OverflowFrees != s.OverflowFrees-MagSize || d.CacheFrees != s.CacheFrees-10 {
		t.Fatalf("Stats.Sub wrong: %+v", d)
	}
}

func TestCachedLargeSizesBypassCache(t *testing.T) {
	a := NewCached(1)
	v, ok := a.Alloc(0, 128) // order 7, above MaxCachedOrder
	if !ok {
		t.Fatal("alloc failed")
	}
	a.Free(0, v, 128)
	s := a.Stats()
	if s.CacheAllocs != 0 || s.CacheFrees != 0 {
		t.Fatal("large allocation went through the magazine cache")
	}
	if s.TreeAllocs != 1 || s.TreeFrees != 1 {
		t.Fatalf("stats = %+v, want tree alloc+free", s)
	}
}

func TestCachedRoundsUp(t *testing.T) {
	a := NewCached(1)
	v, _ := a.Alloc(0, 3) // rounds to 4 pages
	a.Free(0, v, 3)       // also rounds to 4: must match
	v2, _ := a.Alloc(0, 4)
	if v2 != v {
		t.Fatalf("rounded free did not recycle: got %v want %v", v2, v)
	}
}

func TestCachedOutOfRangeCPUFallsBack(t *testing.T) {
	a := NewCached(1)
	v, ok := a.Alloc(5, 1) // cpu out of range
	if !ok {
		t.Fatal("alloc failed")
	}
	a.Free(5, v, 1)
	if a.Stats().TreeAllocs != 1 {
		t.Fatal("out-of-range cpu should use tree")
	}
}

func TestCachedCrossDatapathMigrationDegradesLocality(t *testing.T) {
	// Demonstration of the §2.2 locality failure: two logical datapaths
	// (Rx and Tx) alloc/free on the same CPU. IOVAs freed by one are
	// recycled by the other, interleaving address ranges over time.
	a := NewCached(1)
	rx := make([]ptable.IOVA, 0, 64)
	for i := 0; i < 64; i++ {
		v, _ := a.Alloc(0, 1)
		rx = append(rx, v)
	}
	// Free half of Rx, then Tx allocates: Tx receives Rx's addresses.
	for i := 0; i < 32; i++ {
		a.Free(0, rx[i], 1)
	}
	stolen := 0
	rxSet := map[ptable.IOVA]bool{}
	for _, v := range rx[:32] {
		rxSet[v] = true
	}
	for i := 0; i < 32; i++ {
		v, _ := a.Alloc(0, 1)
		if rxSet[v] {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("expected Tx to recycle Rx IOVAs through the shared magazine")
	}
}

func TestFlushRCachesReturnsEverythingToTree(t *testing.T) {
	a := NewCached(2)
	// Populate magazines on both CPUs and push one full magazine into the
	// depot (MagSize+1 frees swap loaded->prev, more frees keep filling).
	var vs []ptable.IOVA
	for i := 0; i < 3*MagSize; i++ {
		v, ok := a.Alloc(i%2, 1)
		if !ok {
			t.Fatal("alloc failed")
		}
		vs = append(vs, v)
	}
	for i, v := range vs {
		a.Free(i%2, v, 1)
	}
	cached := a.Stats().CacheFrees
	if cached == 0 {
		t.Fatal("setup cached nothing")
	}
	treeFreesBefore := a.Base().Stats().TreeFrees
	released := a.FlushRCaches()
	if released != len(vs) {
		t.Fatalf("FlushRCaches released %d ranges, want %d", released, len(vs))
	}
	if got := a.Base().Stats().TreeFrees - treeFreesBefore; got != int64(len(vs)) {
		t.Fatalf("tree absorbed %d frees, want %d", got, len(vs))
	}
	// Flushed magazines are empty: the next alloc must come from the tree.
	tb := a.Base().Stats().TreeAllocs
	if _, ok := a.Alloc(0, 1); !ok {
		t.Fatal("alloc failed")
	}
	if a.Base().Stats().TreeAllocs != tb+1 {
		t.Fatal("alloc after flush did not hit the tree")
	}
	// A second flush with empty caches is a no-op.
	if n := a.FlushRCaches(); n != 0 {
		t.Fatalf("second FlushRCaches released %d, want 0", n)
	}
}
