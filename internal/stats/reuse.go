package stats

// ReuseDistance computes stack distances (also called reuse distances) over
// a stream of keys. For each access it reports the number of *unique* keys
// touched since the previous access to the same key, or -1 for a key's first
// access (a cold access).
//
// The paper plots, for each IOVA allocation, the number of unique PTcache-L3
// entries used before that entry recurs (Figures 2e/3e/7e/8e); a distance
// above the cache size predicts a miss under LRU.
//
// The implementation keeps an ordered list of keys in recency order with a
// balanced-tree-free scheme: a slice ordered by last access plus an index
// map with lazy compaction. Amortised cost per access is O(distance) in the
// worst case but O(1) for the tight-locality streams this repository
// generates; a correctness-first structure is appropriate here because the
// calculator runs offline over recorded traces.
type ReuseDistance struct {
	// stack holds keys from most recent (end) to least recent (start);
	// holes from promotions are marked with tombstones and compacted.
	stack []reuseEntry
	pos   map[uint64]int // key -> index in stack, -1 when absent
	live  int
}

type reuseEntry struct {
	key  uint64
	dead bool
}

// NewReuseDistance returns an empty calculator.
func NewReuseDistance() *ReuseDistance {
	return &ReuseDistance{pos: make(map[uint64]int)}
}

// Access records an access to key and returns its stack distance:
// the number of distinct other keys accessed since key's previous access,
// or -1 if key has not been seen before.
func (r *ReuseDistance) Access(key uint64) int {
	dist := -1
	if idx, ok := r.pos[key]; ok {
		// Count live entries above idx (more recent than key's last use).
		dist = 0
		for i := idx + 1; i < len(r.stack); i++ {
			if !r.stack[i].dead {
				dist++
			}
		}
		r.stack[idx].dead = true
		r.live--
	}
	r.stack = append(r.stack, reuseEntry{key: key})
	r.pos[key] = len(r.stack) - 1
	r.live++
	if len(r.stack) > 4*r.live+64 {
		r.compact()
	}
	return dist
}

func (r *ReuseDistance) compact() {
	out := r.stack[:0]
	for _, e := range r.stack {
		if !e.dead {
			out = append(out, e)
		}
	}
	r.stack = out
	for i, e := range r.stack {
		r.pos[e.key] = i
	}
}

// ReuseTrace records a bounded trace of stack distances, used to emit the
// per-allocation locality series in the figures.
type ReuseTrace struct {
	calc  *ReuseDistance
	Dists []int // -1 denotes a cold access
	limit int
}

// NewReuseTrace returns a trace that records at most limit distances
// (0 means unlimited).
func NewReuseTrace(limit int) *ReuseTrace {
	return &ReuseTrace{calc: NewReuseDistance(), limit: limit}
}

// Access records an access and appends its distance to the trace.
func (t *ReuseTrace) Access(key uint64) int {
	d := t.calc.Access(key)
	if t.limit == 0 || len(t.Dists) < t.limit {
		t.Dists = append(t.Dists, d)
	}
	return d
}

// FractionAbove reports the fraction of warm (non-cold) accesses whose
// distance is ≥ threshold — i.e. the fraction that would miss in an LRU
// cache of size threshold.
func (t *ReuseTrace) FractionAbove(threshold int) float64 {
	warm, above := 0, 0
	for _, d := range t.Dists {
		if d < 0 {
			continue
		}
		warm++
		if d >= threshold {
			above++
		}
	}
	if warm == 0 {
		return 0
	}
	return float64(above) / float64(warm)
}
