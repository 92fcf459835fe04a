// Package iommu simulates the IO memory management unit: the IOTLB, the
// per-level IO page table caches (PTcache-L1/L2/L3 in the paper's
// terminology), the page-table walker, and the invalidation-queue
// interface, including its option to invalidate only the IOTLB while
// preserving the page-table caches — the hardware hook F&S uses (§3).
package iommu

// lru is a fully-associative LRU cache from uint64 keys to uint64 values.
// PTcache-L1/L2/L3 are modelled as LRU caches keyed by the IOVA prefix
// selecting a page-table page; the value is the identity of that page,
// used to detect stale (use-after-reclaim) entries.
//
// Nodes are reused: an insert at capacity takes over the evicted node, and
// invalidated nodes wait on a free list for the next insert, so a cache
// that has reached its working size inserts without allocating.
type lru struct {
	cap   int
	items map[uint64]*lruNode
	head  *lruNode // most recently used
	tail  *lruNode // least recently used
	free  *lruNode // invalidated nodes, linked through next
}

type lruNode struct {
	key        uint64
	val        uint64
	prev, next *lruNode
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{cap: capacity, items: make(map[uint64]*lruNode, capacity)}
}

func (c *lru) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lru) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// get returns the value for key and marks it most recently used.
func (c *lru) get(key uint64) (uint64, bool) {
	n, ok := c.items[key]
	if !ok {
		return 0, false
	}
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
	return n.val, true
}

// put inserts or refreshes key, evicting the LRU entry at capacity.
func (c *lru) put(key, val uint64) {
	if n, ok := c.items[key]; ok {
		n.val = val
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return
	}
	var n *lruNode
	switch {
	case len(c.items) >= c.cap:
		n = c.tail
		c.unlink(n)
		delete(c.items, n.key)
	case c.free != nil:
		n = c.free
		c.free = n.next
		n.next = nil
	default:
		n = new(lruNode)
	}
	n.key, n.val = key, val
	c.items[key] = n
	c.pushFront(n)
}

// invalidate removes key if present, reporting whether it was present.
func (c *lru) invalidate(key uint64) bool {
	n, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.items, key)
	n.next = c.free
	c.free = n
	return true
}

func (c *lru) len() int { return len(c.items) }

// setAssoc is a set-associative cache used for the IOTLB: pageNumber keys
// map to a set by their low bits, and each set is a tiny LRU of `ways`
// entries. Conflict misses under scattered (poorly localised) IOVAs and
// their absence under F&S-contiguous IOVAs emerge from the indexing.
type setAssoc struct {
	sets []*lru
	ways int
}

func newSetAssoc(nsets, ways int) *setAssoc {
	if nsets < 1 {
		nsets = 1
	}
	// Round sets to a power of two for mask indexing.
	n := 1
	for n < nsets {
		n <<= 1
	}
	s := &setAssoc{sets: make([]*lru, n), ways: ways}
	for i := range s.sets {
		s.sets[i] = newLRU(ways)
	}
	return s
}

func (s *setAssoc) set(key uint64) *lru { return s.sets[key&uint64(len(s.sets)-1)] }

func (s *setAssoc) get(key uint64) (uint64, bool) { return s.set(key).get(key) }
func (s *setAssoc) put(key, val uint64)           { s.set(key).put(key, val) }
func (s *setAssoc) invalidate(key uint64) bool    { return s.set(key).invalidate(key) }

func (s *setAssoc) len() int {
	n := 0
	for _, set := range s.sets {
		n += set.len()
	}
	return n
}
