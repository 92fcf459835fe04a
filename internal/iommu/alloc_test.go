package iommu

import (
	"testing"

	"fastsafe/internal/race"
)

// TestLRUReusesNodes locks in node reuse: a put at capacity takes over
// the evicted node, and invalidated nodes serve the next puts.
func TestLRUReusesNodes(t *testing.T) {
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
		t.Fatalf("LRU holds %d nodes, capacity 8", c.len())
	}
}
