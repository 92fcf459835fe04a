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
// The live entries sit in two parallel arrays in recency order, most
// recently used first, so the LRU entry is the last one. Every operation
// is a scan and a shift, short because NIC traffic hits near the front:
// in strict and fns runs, IOTLB hits land at mean position 0.02–0.06 and
// 78–97% of PTcache hits within the first four entries. Nothing hashes,
// and nothing allocates once the arrays are made.
type lru struct {
	keys, vals []uint64 // len = live entries, cap = capacity
}

func newLRU(capacity int) lru {
	if capacity < 1 {
		capacity = 1
	}
	return lru{keys: make([]uint64, 0, capacity), vals: make([]uint64, 0, capacity)}
}

// find returns key's position, -1 when it is absent.
func (c *lru) find(key uint64) int {
	for i, k := range c.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// moveFront writes key and val at position 0, shifting entries 0..i-1
// back one place over position i.
func (c *lru) moveFront(i int, key, val uint64) {
	if i > 0 {
		copy(c.keys[1:i+1], c.keys[:i])
		copy(c.vals[1:i+1], c.vals[:i])
	}
	c.keys[0], c.vals[0] = key, val
}

// get returns the value for key and marks it most recently used.
func (c *lru) get(key uint64) (uint64, bool) {
	i := c.find(key)
	if i < 0 {
		return 0, false
	}
	val := c.vals[i]
	c.moveFront(i, key, val)
	return val, true
}

// put inserts or refreshes key, evicting the LRU entry at capacity.
func (c *lru) put(key, val uint64) {
	i := c.find(key)
	if i < 0 {
		// A new entry takes a free slot, or the LRU entry's at capacity.
		i = len(c.keys)
		if i < cap(c.keys) {
			c.keys, c.vals = c.keys[:i+1], c.vals[:i+1]
		} else {
			i--
		}
	}
	c.moveFront(i, key, val)
}

// invalidate removes key if present, reporting whether it was present.
func (c *lru) invalidate(key uint64) bool {
	i := c.find(key)
	if i < 0 {
		return false
	}
	last := len(c.keys) - 1
	copy(c.keys[i:], c.keys[i+1:])
	copy(c.vals[i:], c.vals[i+1:])
	c.keys, c.vals = c.keys[:last], c.vals[:last]
	return true
}

// flush removes every entry tagged with domain d, keeping the others in
// recency order.
func (c *lru) flush(d DomainID) {
	n := 0
	for i, k := range c.keys {
		if keyDomain(k) != d {
			c.keys[n], c.vals[n] = k, c.vals[i]
			n++
		}
	}
	c.keys, c.vals = c.keys[:n], c.vals[:n]
}

func (c *lru) len() int { return len(c.keys) }

// setAssoc is a set-associative cache used for the IOTLB: pageNumber keys
// map to a set by their low bits, and each set is a tiny LRU of `ways`
// entries. Conflict misses under scattered (poorly localised) IOVAs and
// their absence under F&S-contiguous IOVAs emerge from the indexing.
type setAssoc struct {
	sets []lru
}

func newSetAssoc(nsets, ways int) setAssoc {
	if nsets < 1 {
		nsets = 1
	}
	// Round sets to a power of two for mask indexing.
	n := 1
	for n < nsets {
		n <<= 1
	}
	s := setAssoc{sets: make([]lru, n)}
	for i := range s.sets {
		s.sets[i] = newLRU(ways)
	}
	return s
}

func (s *setAssoc) set(key uint64) *lru { return &s.sets[key&uint64(len(s.sets)-1)] }

func (s *setAssoc) get(key uint64) (uint64, bool) { return s.set(key).get(key) }
func (s *setAssoc) put(key, val uint64)           { s.set(key).put(key, val) }
func (s *setAssoc) invalidate(key uint64) bool    { return s.set(key).invalidate(key) }

func (s *setAssoc) flush(d DomainID) {
	for i := range s.sets {
		s.sets[i].flush(d)
	}
}

func (s *setAssoc) len() int {
	n := 0
	for _, set := range s.sets {
		n += set.len()
	}
	return n
}
