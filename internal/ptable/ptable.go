// Package ptable implements the 4-level IO page table the IOMMU walks
// (PT-L1 .. PT-L4 in the paper's terminology, §2.1).
//
// Layout matches Intel VT-d second-level translation for 48-bit IO virtual
// addresses and 4KB pages: each page-table page holds 512 eight-byte
// entries; PT-L1 entries are indexed by IOVA bits 47:39, PT-L2 by 38:30,
// PT-L3 by 29:21 and PT-L4 by 20:12. PT-L4 entries hold the final physical
// address.
//
// The package also implements the Linux page-table page reclamation rule
// the paper's Figure 5 describes: a page-table page is reclaimed only when
// a single unmap operation covers the page's entire address span. Many
// small unmap calls that together clear a page never reclaim it — this
// rarity is what makes the F&S "preserve PTcaches on invalidation" idea
// safe in the common case.
package ptable

import (
	"errors"
	"fmt"
)

// IOVA is an IO virtual address handed to the device.
type IOVA uint64

// Phys is a host physical address.
type Phys uint64

// Address-space geometry.
const (
	PageShift      = 12
	PageSize       = 1 << PageShift // 4KB
	EntriesPerPage = 512
	AddressBits    = 48

	// Span of the address range covered by one page-table page at each
	// level: a PT-L4 page maps 512 * 4KB = 2MB, a PT-L3 page 1GB, a
	// PT-L2 page 512GB. (The single PT-L1 root covers the whole 2^48.)
	L4PageSpan = uint64(PageSize) * EntriesPerPage  // 2MB
	L3PageSpan = L4PageSpan * EntriesPerPage        // 1GB
	L2PageSpan = L3PageSpan * EntriesPerPage        // 512GB
	AddrSpace  = uint64(1) << AddressBits           // 256TB
	TopIOVA    = IOVA(AddrSpace - uint64(PageSize)) // highest page
)

// Geometry sanity: four 9-bit levels plus the page offset fill 48 bits.
var _ = [1]struct{}{}[AddressBits-(4*9+PageShift)]

// Index extraction. LnIndex returns the entry index within a PT-Ln page.
func (v IOVA) L1Index() int { return int(uint64(v) >> 39 & 0x1ff) }
func (v IOVA) L2Index() int { return int(uint64(v) >> 30 & 0x1ff) }
func (v IOVA) L3Index() int { return int(uint64(v) >> 21 & 0x1ff) }
func (v IOVA) L4Index() int { return int(uint64(v) >> 12 & 0x1ff) }

// Cache keys: the IOVA prefix that selects a PT page at each level. A
// PTcache-L1 entry covers 2^39 bytes of IOVA space, PTcache-L2 2^30,
// PTcache-L3 2^21 — exactly the coverage arithmetic in §2.2.
func (v IOVA) L1Key() uint64 { return uint64(v) >> 39 }
func (v IOVA) L2Key() uint64 { return uint64(v) >> 30 }
func (v IOVA) L3Key() uint64 { return uint64(v) >> 21 }

// PageNumber returns the 4KB-page number of v.
func (v IOVA) PageNumber() uint64 { return uint64(v) >> PageShift }

// AlignDown returns v rounded down to a page boundary.
func (v IOVA) AlignDown() IOVA { return v &^ (PageSize - 1) }

func (v IOVA) String() string { return fmt.Sprintf("iova:%#x", uint64(v)) }

// Errors returned by Table operations.
var (
	ErrAlreadyMapped = errors.New("ptable: iova already mapped")
	ErrNotMapped     = errors.New("ptable: iova not mapped")
	ErrUnaligned     = errors.New("ptable: unaligned address or length")
	ErrOutOfRange    = errors.New("ptable: iova outside 48-bit space")
)

// page is one page-table page. Level 1 is the root; level 4 pages hold
// physical addresses in pte rather than child pointers.
type page struct {
	id    uint64
	level int
	child [EntriesPerPage]*page
	pte   [EntriesPerPage]Phys
	valid [EntriesPerPage]bool
	count int // live entries
}

// ReclaimedPage describes a page-table page freed by an unmap operation.
// Level is the page's own level (2, 3 or 4 — the root is never freed), Key
// is the IOVA prefix that selects it (L1Key for a level-2 page, L2Key for
// level-3, L3Key for level-4), and ID is the unique page identity. Only
// TestPropertyLeavesTrackTheWalk reads ID, to check that no leaf of a
// reclaimed page reads live.
type ReclaimedPage struct {
	Level int
	Key   uint64
	ID    uint64
}

// UnmapResult reports what one unmap call did.
type UnmapResult struct {
	Unmapped  int // number of 4KB mappings removed
	Reclaimed []ReclaimedPage
}

// Walk is the result of a full page-table walk for a mapped IOVA.
// PageID[i] is the identity of the PT-L(i+1) page the walk reads, and
// Leaf is the entry the walk ends at.
type Walk struct {
	Phys   Phys
	PageID [4]uint64
	Leaf   Leaf
}

// Leaf is the page-table entry that maps an IOVA: a PT-L4 entry, or the
// PT-L3 entry of a 2MB leaf. A cache that keeps the Leaf of the walk
// that filled it can later ask what its IOVA maps to without walking.
//
// That answer is exact while the entry is live. A page-table page is
// detached (reclaimed) only when it holds no live entry, and nothing
// writes a detached page again, so a live entry's page is still on the
// IOVA's current walk and the entry is what that walk would end at.
// Once the entry reads not live the Leaf says nothing more: the IOVA may
// since have been mapped again under another entry.
type Leaf struct {
	pg *page
	i  int
}

// Live reports whether the entry still maps its IOVA. The zero Leaf is
// never live.
func (l Leaf) Live() bool { return l.pg != nil && l.pg.valid[l.i] }

// Huge reports whether the entry is a 2MB leaf, as LookupHugeAware's
// isHuge would for an IOVA it maps. The zero Leaf is not.
func (l Leaf) Huge() bool { return l.pg != nil && l.pg.level == 3 }

// Phys returns what a walk for v ends at, as LookupHugeAware(v) would:
// the 4KB leaf's page, or the 2MB leaf's base plus v's offset in it. v
// must be an IOVA the entry maps, and the result holds only while Live.
func (l Leaf) Phys(v IOVA) Phys {
	if l.pg.level == 3 {
		return l.pg.pte[l.i] + Phys(uint64(v)%HugeSize)
	}
	return l.pg.pte[l.i]
}

// Table is a 4-level IO page table. The zero value is not usable; construct
// with New.
type Table struct {
	root   *page
	nextID uint64
	live   int // live page-table pages, including the root
	maps   int // live 4KB mappings
}

// New returns an empty page table with an allocated root page.
func New() *Table {
	t := &Table{}
	t.root = t.newPage(1)
	return t
}

func (t *Table) newPage(level int) *page {
	t.nextID++
	t.live++
	return &page{id: t.nextID, level: level}
}

func checkPage(v IOVA) error {
	if uint64(v)&(PageSize-1) != 0 {
		return ErrUnaligned
	}
	if uint64(v) >= AddrSpace {
		return ErrOutOfRange
	}
	return nil
}

// Map installs a 4KB mapping from v to pa, creating intermediate pages as
// needed. Mapping an already-mapped IOVA is an error: the drivers in this
// repository never remap without an intervening unmap, and silently
// overwriting would mask bugs.
func (t *Table) Map(v IOVA, pa Phys) error {
	if err := checkPage(v); err != nil {
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
	if l3.valid[v.L3Index()] {
		return fmt.Errorf("%w: %v inside a huge mapping", ErrHugeOverlap, v)
	}
	l4 := l3.child[v.L3Index()]
	if l4 == nil {
		l4 = t.newPage(4)
		l3.child[v.L3Index()] = l4
		l3.count++
	}
	i := v.L4Index()
	if l4.valid[i] {
		return fmt.Errorf("%w: %v", ErrAlreadyMapped, v)
	}
	l4.valid[i] = true
	l4.pte[i] = pa
	l4.count++
	t.maps++
	return nil
}

// Lookup walks the table for v, returning the physical address and the
// identities of the four page-table pages the walk reads. ok is false when
// v is unmapped at any level.
func (t *Table) Lookup(v IOVA) (w Walk, ok bool) {
	if uint64(v) >= AddrSpace {
		return Walk{}, false
	}
	v = v.AlignDown()
	w.PageID[0] = t.root.id
	l2 := t.root.child[v.L1Index()]
	if l2 == nil {
		return Walk{}, false
	}
	w.PageID[1] = l2.id
	l3 := l2.child[v.L2Index()]
	if l3 == nil {
		return Walk{}, false
	}
	w.PageID[2] = l3.id
	l4 := l3.child[v.L3Index()]
	if l4 == nil {
		return Walk{}, false
	}
	w.PageID[3] = l4.id
	i := v.L4Index()
	if !l4.valid[i] {
		return Walk{}, false
	}
	w.Phys = l4.pte[i]
	w.Leaf = Leaf{l4, i}
	return w, true
}

// Mapped reports whether v has a live mapping.
func (t *Table) Mapped(v IOVA) bool {
	_, ok := t.Lookup(v)
	return ok
}

// PageIDs returns the identities of the PT pages that currently serve v's
// translation path, for levels present. Used by cache-coherence checks.
func (t *Table) PageIDs(v IOVA) (ids [4]uint64) {
	ids[0] = t.root.id
	l2 := t.root.child[v.L1Index()]
	if l2 == nil {
		return ids
	}
	ids[1] = l2.id
	l3 := l2.child[v.L2Index()]
	if l3 == nil {
		return ids
	}
	ids[2] = l3.id
	l4 := l3.child[v.L3Index()]
	if l4 == nil {
		return ids
	}
	ids[3] = l4.id
	return ids
}

// Unmap removes every 4KB mapping in [start, start+length). Every page in
// the range must currently be mapped. It then applies the Linux reclamation
// rule: a PT page is freed only if this single call's range covers the
// page's entire span (and the page is consequently empty). Freed pages are
// reported so the caller can invalidate the page-table caches that point to
// them — the paper's F&S invalidates PTcaches only in that case.
func (t *Table) Unmap(start IOVA, length uint64) (UnmapResult, error) {
	if err := checkPage(start); err != nil {
		return UnmapResult{}, err
	}
	if length == 0 || length%PageSize != 0 {
		return UnmapResult{}, ErrUnaligned
	}
	if uint64(start)+length > AddrSpace {
		return UnmapResult{}, ErrOutOfRange
	}
	end := uint64(start) + length

	// First verify the whole range is mapped so the operation is atomic.
	for a := uint64(start); a < end; a += PageSize {
		if !t.Mapped(IOVA(a)) {
			return UnmapResult{}, fmt.Errorf("%w: %v", ErrNotMapped, IOVA(a))
		}
	}

	var res UnmapResult
	for a := uint64(start); a < end; a += PageSize {
		v := IOVA(a)
		l2 := t.root.child[v.L1Index()]
		l3 := l2.child[v.L2Index()]
		l4 := l3.child[v.L3Index()]
		i := v.L4Index()
		l4.valid[i] = false
		l4.pte[i] = 0
		l4.count--
		t.maps--
		res.Unmapped++
	}

	t.reclaim(start, end, &res)
	return res, nil
}

// reclaim frees page-table pages whose entire span lies within [start, end)
// and which are now empty, bottom-up (L4 pages, then L3, then L2).
func (t *Table) reclaim(start IOVA, end uint64, res *UnmapResult) {
	// Level 4 pages: span 2MB, keyed by L3Key.
	t.reclaimLevel(start, end, L4PageSpan, res, 4)
	// Level 3 pages: span 1GB.
	t.reclaimLevel(start, end, L3PageSpan, res, 3)
	// Level 2 pages: span 512GB.
	t.reclaimLevel(start, end, L2PageSpan, res, 2)
}

func (t *Table) reclaimLevel(start IOVA, end uint64, span uint64, res *UnmapResult, level int) {
	// First page-aligned span fully inside [start, end).
	first := (uint64(start) + span - 1) / span * span
	for base := first; base+span <= end; base += span {
		v := IOVA(base)
		l2 := t.root.child[v.L1Index()]
		if l2 == nil {
			continue
		}
		switch level {
		case 4:
			l3 := l2.child[v.L2Index()]
			if l3 == nil {
				continue
			}
			l4 := l3.child[v.L3Index()]
			if l4 == nil || l4.count != 0 {
				continue
			}
			l3.child[v.L3Index()] = nil
			l3.count--
			t.live--
			res.Reclaimed = append(res.Reclaimed, ReclaimedPage{Level: 4, Key: v.L3Key(), ID: l4.id})
		case 3:
			l3 := l2.child[v.L2Index()]
			if l3 == nil || l3.count != 0 {
				continue
			}
			l2.child[v.L2Index()] = nil
			l2.count--
			t.live--
			res.Reclaimed = append(res.Reclaimed, ReclaimedPage{Level: 3, Key: v.L2Key(), ID: l3.id})
		case 2:
			if l2.count != 0 {
				continue
			}
			t.root.child[v.L1Index()] = nil
			t.root.count--
			t.live--
			res.Reclaimed = append(res.Reclaimed, ReclaimedPage{Level: 2, Key: v.L1Key(), ID: l2.id})
		}
	}
}
