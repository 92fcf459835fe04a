package ptable

import (
	"errors"
	"math/rand"
	"testing"
)

func TestMapHugeLookup(t *testing.T) {
	tb := New()
	if err := tb.MapHuge(0, 0x40000000); err != nil {
		t.Fatal(err)
	}
	// Any address inside the 2MB span translates with the right offset.
	w, huge, ok := tb.LookupHugeAware(IOVA(5*PageSize + 123))
	if !ok || !huge {
		t.Fatalf("lookup = huge=%v ok=%v", huge, ok)
	}
	if w.Phys != 0x40000000+5*PageSize+123 {
		t.Fatalf("Phys = %#x", uint64(w.Phys))
	}
	if w.PageID[3] != 0 {
		t.Fatal("huge walk should have no PT-L4 page")
	}
	if !tb.HugeMapped(PageSize) {
		t.Fatal("HugeMapped false inside span")
	}
	// Mappings accounting: 512 pages worth.
	if tb.Mappings() != EntriesPerPage {
		t.Fatalf("Mappings = %d, want 512", tb.Mappings())
	}
}

func TestMapHugeValidation(t *testing.T) {
	tb := New()
	if err := tb.MapHuge(PageSize, 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned huge map err = %v", err)
	}
	if err := tb.MapHuge(IOVA(AddrSpace), 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
	if err := tb.MapHuge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.MapHuge(0, 2); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("double huge map err = %v", err)
	}
}

func TestHuge4KOverlapRejected(t *testing.T) {
	tb := New()
	if err := tb.Map(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	// Huge mapping over a span with 4KB mappings must fail.
	if err := tb.MapHuge(0, 2); !errors.Is(err, ErrHugeOverlap) {
		t.Fatalf("huge-over-4K err = %v", err)
	}
	// And the reverse: 4KB map inside a live huge span must fail.
	if err := tb.MapHuge(IOVA(HugeSize), 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(IOVA(HugeSize+PageSize), 1); !errors.Is(err, ErrHugeOverlap) {
		t.Fatalf("4K-inside-huge err = %v", err)
	}
}

func TestUnmapHuge(t *testing.T) {
	tb := New()
	if err := tb.MapHuge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.UnmapHuge(0); err != nil {
		t.Fatal(err)
	}
	if tb.HugeMapped(0) || tb.Mappings() != 0 {
		t.Fatal("huge mapping survived unmap")
	}
	if err := tb.UnmapHuge(0); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap err = %v", err)
	}
	// Remap works after unmap.
	if err := tb.MapHuge(0, 7); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapHugeRejectsNonHuge(t *testing.T) {
	tb := New()
	if err := tb.Map(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.UnmapHuge(0); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("UnmapHuge over 4K mapping err = %v", err)
	}
}

func TestLookupHugeAware4K(t *testing.T) {
	tb := New()
	if err := tb.Map(0x3000, 0x99000); err != nil {
		t.Fatal(err)
	}
	w, huge, ok := tb.LookupHugeAware(0x3000)
	if !ok || huge {
		t.Fatalf("4K lookup: huge=%v ok=%v", huge, ok)
	}
	if w.Phys != 0x99000 || w.PageID[3] == 0 {
		t.Fatalf("walk = %+v", w)
	}
}

func TestHugeAndRegularCoexist(t *testing.T) {
	tb := New()
	if err := tb.MapHuge(0, 0x100000); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(IOVA(HugeSize), 0x55000); err != nil {
		t.Fatal(err)
	}
	if !tb.HugeMapped(0x1000) {
		t.Fatal("huge span lost")
	}
	if _, huge, ok := tb.LookupHugeAware(IOVA(HugeSize)); !ok || huge {
		t.Fatal("4K neighbour broken")
	}
}

// TestPropertyLeavesTrackTheWalk drives random Map/Unmap/MapHuge/
// UnmapHuge streams over two 2MB regions, including full-span unmaps
// that reclaim the PT-L4 page, and holds on to the Leaf of every walk.
// After each operation every leaf taken so far must read live exactly
// when v's current walk ends at it (so a live leaf's Phys is the walk's),
// and a leaf in a reclaimed page must read not live.
func TestPropertyLeavesTrackTheWalk(t *testing.T) {
	type held struct {
		v    IOVA
		leaf Leaf
	}
	regions := []IOVA{IOVA(HugeSize), IOVA(3 * HugeSize)}
	slots := []int{0, 1, 2, 300, 511}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New()
		reclaimed := map[uint64]bool{}
		var leaves []held
		sawLive, sawReclaimed := false, false
		for step := 0; step < 300; step++ {
			r := regions[rng.Intn(len(regions))]
			v := r + IOVA(slots[rng.Intn(len(slots))]*PageSize) + IOVA(rng.Intn(PageSize))
			pa := Phys(rng.Intn(4)+1) << 30
			// Errors (a page already mapped, a span not fully mapped, a
			// 4KB page inside a 2MB leaf) leave the table as it was.
			switch rng.Intn(6) {
			case 0:
				_ = tb.Map(v.AlignDown(), pa+Phys(uint64(v.AlignDown())%HugeSize))
			case 1:
				_, _ = tb.Unmap(v.AlignDown(), PageSize)
			case 2:
				_ = tb.MapHuge(r, pa)
			case 3:
				_ = tb.UnmapHuge(r)
			case 4:
				// Fill the span, then unmap it in one call: this reclaims.
				for i := 0; i < EntriesPerPage; i++ {
					_ = tb.Map(r+IOVA(i*PageSize), pa+Phys(i*PageSize))
				}
				if res, err := tb.Unmap(r, HugeSize); err == nil {
					for _, p := range res.Reclaimed {
						reclaimed[p.ID] = true
					}
				}
			case 5:
				if w, _, ok := tb.LookupHugeAware(v); ok {
					leaves = append(leaves, held{v, w.Leaf})
				}
			}
			for _, h := range leaves {
				w, _, ok := tb.LookupHugeAware(h.v)
				onWalk := ok && w.Leaf == h.leaf
				if h.leaf.Live() != onWalk {
					t.Fatalf("seed %d step %d: %v leaf live=%v, on the walk=%v", seed, step, h.v, h.leaf.Live(), onWalk)
				}
				if h.leaf.Live() {
					sawLive = true
					if got := h.leaf.Phys(h.v); got != w.Phys {
						t.Fatalf("seed %d step %d: %v leaf Phys %#x, walk %#x", seed, step, h.v, uint64(got), uint64(w.Phys))
					}
				}
				if reclaimed[h.leaf.pg.id] {
					sawReclaimed = true
					if h.leaf.Live() {
						t.Fatalf("seed %d step %d: %v leaf in reclaimed page %d reads live", seed, step, h.v, h.leaf.pg.id)
					}
				}
			}
		}
		if !sawLive || !sawReclaimed {
			t.Fatalf("seed %d reached no live leaf (%v) or no leaf in a reclaimed page (%v)", seed, sawLive, sawReclaimed)
		}
	}
}
