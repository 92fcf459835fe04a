package iommu

import (
	"testing"

	"fastsafe/internal/ptable"
	"fastsafe/internal/race"
)

// TestLRUNoAllocsAtCapacity: a put at capacity overwrites the evicted
// entry's slot, and a put after an invalidation takes the slot it freed,
// so neither allocates.
func TestLRUNoAllocsAtCapacity(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	c := newLRU(8)
	key := uint64(0)
	for ; key < 8; key++ {
		c.put(key, key)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.put(key, key)
		key++
	}); n != 0 {
		t.Errorf("put at capacity: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if !c.invalidate(key-1) || !c.invalidate(key-2) {
			t.Fatal("invalidate missed a cached key")
		}
		c.put(key, key)
		c.put(key+1, key)
		key += 2
	}); n != 0 {
		t.Errorf("put after an invalidate: %v allocs, want 0", n)
	}
	if c.len() > 8 {
		t.Fatalf("LRU holds %d entries, capacity 8", c.len())
	}
}

// TestTranslateInvalidateNoAllocs: the translation pipeline and the
// invalidation queue allocate nothing once a domain exists — an IOTLB
// hit, a walk from a PTcache-L3 hit, a cold four-level walk and a ranged
// invalidation.
func TestTranslateInvalidateNoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	m := New(Config{})
	d := m.CreateDomain()
	for i := 0; i < 2; i++ {
		if err := m.TableOf(d).Map(ptable.IOVA(i*ptable.PageSize), ptable.Phys(i+1)<<ptable.PageShift); err != nil {
			t.Fatal(err)
		}
	}
	m.TranslateIn(d, 0)
	for _, tc := range []struct {
		name  string
		reads int // -1: not a translation
		op    func() Translation
	}{
		{"IOTLB hit", 0, func() Translation { return m.TranslateIn(d, 0) }},
		{"PTcache-hit walk", 1, func() Translation {
			m.InvalidateIn(d, ptable.PageSize, 1, true)
			return m.TranslateIn(d, ptable.PageSize)
		}},
		{"cold walk", 4, func() Translation {
			m.InvalidateIn(d, 0, 2, false)
			return m.TranslateIn(d, 0)
		}},
		{"InvalidateIn", -1, func() Translation {
			m.InvalidateIn(d, 0, 2, false)
			return Translation{}
		}},
	} {
		if tr := tc.op(); tc.reads >= 0 && (!tr.OK() || tr.MemReads() != tc.reads || tr.Served().IOTLB() != (tc.reads == 0)) {
			t.Fatalf("%s: %+v, want %d page-table reads", tc.name, tr, tc.reads)
		}
		if n := testing.AllocsPerRun(1000, func() { tc.op() }); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
}

// TestTranslateRunNoAllocs: a run through the direct Translator
// allocates nothing, whichever path its first transaction takes.
func TestTranslateRunNoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range runCases(t) {
		if n := testing.AllocsPerRun(1000, func() { tc.run() }); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
}
