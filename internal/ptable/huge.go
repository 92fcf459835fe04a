package ptable

import "fmt"

// Hugepage (2MB) mappings. A huge mapping occupies one PT-L3 entry as a
// leaf (the x86/VT-d PS-bit encoding): the walk ends one level early, so
// the worst case is three memory reads and the best case — with a
// PTcache-L2 hit — a single read of the PT-L3 leaf entry. One IOTLB entry
// covers the whole 2MB, multiplying IOTLB reach by 512.
//
// The paper's §5 discusses integrating hugepages with F&S to reduce the
// IOTLB miss *count* (its design only reduces the miss *cost*); the Huge
// protection mode in internal/core builds on this support.

// HugeSize is the hugepage size: the span of one PT-L3 entry.
const HugeSize = L4PageSpan // 2MB

// ErrHugeOverlap is returned when a huge mapping would overlap existing
// 4KB mappings (or vice versa).
var ErrHugeOverlap = fmt.Errorf("ptable: hugepage overlaps existing mappings")

func checkHuge(v IOVA) error {
	if uint64(v)%HugeSize != 0 {
		return ErrUnaligned
	}
	if uint64(v) >= AddrSpace {
		return ErrOutOfRange
	}
	return nil
}

// MapHuge installs a 2MB leaf mapping at v (2MB-aligned) to pa.
func (t *Table) MapHuge(v IOVA, pa Phys) error {
	if err := checkHuge(v); err != nil {
		return err
	}
	l2 := t.root.child[v.L1Index()]
	if l2 == nil {
		l2 = t.newPage(2)
		t.root.child[v.L1Index()] = l2
		t.root.count++
	}
	l3 := l2.child[v.L2Index()]
	if l3 == nil {
		l3 = t.newPage(3)
		l2.child[v.L2Index()] = l3
		l2.count++
	}
	i := v.L3Index()
	if l3.child[i] != nil {
		return fmt.Errorf("%w: %v has 4KB mappings", ErrHugeOverlap, v)
	}
	if l3.valid[i] {
		return fmt.Errorf("%w: %v", ErrAlreadyMapped, v)
	}
	l3.valid[i] = true
	l3.pte[i] = pa
	l3.count++
	t.maps += EntriesPerPage // a huge mapping counts as 512 4KB mappings
	return nil
}

// UnmapHuge removes the 2MB leaf at v. Because the single operation covers
// the leaf's entire span by definition, no additional page-table pages are
// freed (the leaf *is* the PT-L3 entry), so UnmapHuge never reclaims.
func (t *Table) UnmapHuge(v IOVA) error {
	if err := checkHuge(v); err != nil {
		return err
	}
	l2 := t.root.child[v.L1Index()]
	if l2 == nil {
		return fmt.Errorf("%w: %v", ErrNotMapped, v)
	}
	l3 := l2.child[v.L2Index()]
	if l3 == nil {
		return fmt.Errorf("%w: %v", ErrNotMapped, v)
	}
	i := v.L3Index()
	if !l3.valid[i] || l3.child[i] != nil {
		return fmt.Errorf("%w: %v is not a huge mapping", ErrNotMapped, v)
	}
	l3.valid[i] = false
	l3.pte[i] = 0
	l3.count--
	t.maps -= EntriesPerPage
	return nil
}

// LookupHugeAware walks the table for v, handling both 4KB and 2MB leaves.
// isHuge reports which kind served the translation; for a huge leaf the
// returned Walk has PageID[3] == 0 (there is no PT-L4 page).
func (t *Table) LookupHugeAware(v IOVA) (w Walk, isHuge, ok bool) {
	if uint64(v) >= AddrSpace {
		return Walk{}, false, false
	}
	w.PageID[0] = t.root.id
	l2 := t.root.child[v.L1Index()]
	if l2 == nil {
		return Walk{}, false, false
	}
	w.PageID[1] = l2.id
	l3 := l2.child[v.L2Index()]
	if l3 == nil {
		return Walk{}, false, false
	}
	w.PageID[2] = l3.id
	i := v.L3Index()
	if l3.child[i] == nil {
		// Possibly a huge leaf.
		if !l3.valid[i] {
			return Walk{}, false, false
		}
		w.Phys = l3.pte[i] + Phys(uint64(v)%HugeSize)
		w.Leaf = Leaf{l3, i}
		return w, true, true
	}
	l4 := l3.child[i]
	w.PageID[3] = l4.id
	j := v.L4Index()
	if !l4.valid[j] {
		return Walk{}, false, false
	}
	w.Phys = l4.pte[j]
	w.Leaf = Leaf{l4, j}
	return w, false, true
}
