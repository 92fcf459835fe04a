package ats

import (
	"testing"

	"fastsafe/internal/ptable"
	"fastsafe/internal/race"
)

// TestInsertReusesEntries locks in entry reuse: an insert at capacity
// takes over the evicted entry, and entries an ATC shoot-down removed
// serve the next inserts, so neither allocates.
func TestInsertReusesEntries(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	_, _, a := newCache(t, 4)
	next := ptable.IOVA(0)
	insert := func() ptable.IOVA {
		p := next * ptable.PageSize
		next++
		a.insert(p, ptable.Phys(p), false, ptable.Leaf{})
		return p
	}
	for i := 0; i < 4; i++ {
		insert()
	}
	if n := testing.AllocsPerRun(1000, func() { insert() }); n != 0 {
		t.Errorf("insert at capacity: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a.Invalidate(insert(), 1, false)
		insert()
		a.Invalidate(insert(), 1, true)
	}); n != 0 {
		t.Errorf("insert after a shoot-down: %v allocs, want 0", n)
	}
	if len(a.entries) > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", len(a.entries))
	}
}
