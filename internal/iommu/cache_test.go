package iommu

import (
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU(2)
	c.put(1, 10)
	c.put(2, 20)
	if v, ok := c.get(1); !ok || v != 10 {
		t.Fatalf("get(1) = %d,%v", v, ok)
	}
	// 2 is now LRU; inserting 3 evicts it.
	c.put(3, 30)
	if _, ok := c.get(2); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.get(3); !ok {
		t.Fatal("new entry missing")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRU(2)
	c.put(1, 10)
	c.put(1, 11)
	if v, _ := c.get(1); v != 11 {
		t.Fatalf("value not updated: %d", v)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := newLRU(4)
	c.put(1, 10)
	if !c.invalidate(1) {
		t.Fatal("invalidate of present key returned false")
	}
	if c.invalidate(1) {
		t.Fatal("invalidate of absent key returned true")
	}
	if _, ok := c.get(1); ok {
		t.Fatal("invalidated key still present")
	}
}

func TestLRUInvalidateMiddleAndTail(t *testing.T) {
	c := newLRU(4)
	for k := uint64(1); k <= 4; k++ {
		c.put(k, k)
	}
	c.invalidate(2) // middle
	c.invalidate(1) // tail (LRU)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.put(5, 5)
	c.put(6, 6)
	// 3 was LRU among survivors; adding two entries must evict nothing
	// until capacity, then 3 first.
	c.put(7, 7)
	if _, ok := c.get(3); ok {
		t.Fatal("expected 3 evicted first")
	}
}

func TestLRUCapacityOne(t *testing.T) {
	c := newLRU(1)
	c.put(1, 1)
	c.put(2, 2)
	if _, ok := c.get(1); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
	if v, ok := c.get(2); !ok || v != 2 {
		t.Fatal("latest entry missing")
	}
}

func TestLRUZeroCapacityClamped(t *testing.T) {
	c := newLRU(0)
	c.put(1, 1)
	if _, ok := c.get(1); !ok {
		t.Fatal("clamped capacity should hold one entry")
	}
}

// Property: an LRU of capacity k, fed any access stream, never exceeds k
// entries and always contains the k most recently used distinct keys.
func TestPropertyLRUContents(t *testing.T) {
	const k = 4
	f := func(stream []uint8) bool {
		c := newLRU(k)
		var recent []uint64 // distinct keys, most recent first
		touch := func(key uint64) {
			for i, r := range recent {
				if r == key {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			recent = append([]uint64{key}, recent...)
		}
		for _, b := range stream {
			key := uint64(b % 10)
			if b%2 == 0 {
				c.put(key, key)
				touch(key)
			} else if _, ok := c.get(key); ok {
				touch(key)
			}
			if c.len() > k {
				return false
			}
		}
		// The min(k, len(recent)) most recent put/get-hit keys must be in
		// the cache.
		n := k
		if len(recent) < n {
			n = len(recent)
		}
		for _, key := range recent[:n] {
			if _, ok := c.get(key); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// lruOracle is an LRU written the other way round from lru: each key
// keeps the tick of its last use, and an insert at capacity evicts the
// key with the smallest tick.
type lruOracle struct {
	cap  int
	tick uint64
	vals map[uint64]uint64
	used map[uint64]uint64
}

func (o *lruOracle) get(key uint64) (uint64, bool) {
	v, ok := o.vals[key]
	if ok {
		o.tick++
		o.used[key] = o.tick
	}
	return v, ok
}

func (o *lruOracle) put(key, val uint64) {
	if _, ok := o.vals[key]; !ok && len(o.vals) == o.cap {
		victim, oldest := uint64(0), ^uint64(0)
		for k, u := range o.used {
			if u < oldest {
				victim, oldest = k, u
			}
		}
		delete(o.vals, victim)
		delete(o.used, victim)
	}
	o.tick++
	o.vals[key], o.used[key] = val, o.tick
}

func (o *lruOracle) invalidate(key uint64) bool {
	_, ok := o.vals[key]
	delete(o.vals, key)
	delete(o.used, key)
	return ok
}

// FuzzLRU runs decoded get/put/invalidate streams through lru and the
// oracle and compares every result. The first byte picks the capacity;
// then each byte pair is one operation: the first byte's low bits pick
// get, put or invalidate, and the second picks one of 2*capacity+1 keys,
// so every capacity sees hits, misses and evictions. A put stores the
// operation's index, so a stale value cannot pass for a fresh one.
func FuzzLRU(f *testing.F) {
	capacities := []int{1, 2, 4, 32, 128}
	for i := range capacities {
		f.Add([]byte{byte(i), 1, 0, 1, 1, 0, 0, 1, 2, 2, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := capacities[int(data[0])%len(capacities)]
		c := newLRU(capacity)
		o := &lruOracle{cap: capacity, vals: map[uint64]uint64{}, used: map[uint64]uint64{}}
		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			key := uint64(ops[i+1]) % uint64(2*capacity+1)
			switch ops[i] % 3 {
			case 0:
				v, ok := c.get(key)
				wv, wok := o.get(key)
				if v != wv || ok != wok {
					t.Fatalf("cap %d op %d: get(%d) = %d,%v, oracle %d,%v", capacity, i/2, key, v, ok, wv, wok)
				}
			case 1:
				c.put(key, uint64(i))
				o.put(key, uint64(i))
			case 2:
				if got, want := c.invalidate(key), o.invalidate(key); got != want {
					t.Fatalf("cap %d op %d: invalidate(%d) = %v, oracle %v", capacity, i/2, key, got, want)
				}
			}
			if c.len() != len(o.vals) {
				t.Fatalf("cap %d op %d: len = %d, oracle %d", capacity, i/2, c.len(), len(o.vals))
			}
		}
	})
}

func TestSetAssocDistributesSets(t *testing.T) {
	s := newSetAssoc(4, 1)
	// Keys 0..3 land in distinct sets: no evictions despite ways=1.
	for k := uint64(0); k < 4; k++ {
		s.put(k, k)
	}
	for k := uint64(0); k < 4; k++ {
		if _, ok := s.get(k); !ok {
			t.Fatalf("key %d missing (should be in its own set)", k)
		}
	}
}

func TestSetAssocConflictMiss(t *testing.T) {
	s := newSetAssoc(4, 1)
	// Keys 0 and 4 share set 0 with 1 way: second insert evicts first.
	s.put(0, 0)
	s.put(4, 4)
	if _, ok := s.get(0); ok {
		t.Fatal("conflicting key survived in 1-way set")
	}
	if _, ok := s.get(4); !ok {
		t.Fatal("newest key missing")
	}
}

func TestSetAssocRoundsToPowerOfTwo(t *testing.T) {
	s := newSetAssoc(5, 2) // rounds to 8 sets
	if len(s.sets) != 8 {
		t.Fatalf("sets = %d, want 8", len(s.sets))
	}
}

func TestSetAssocInvalidateAndLen(t *testing.T) {
	s := newSetAssoc(4, 2)
	s.put(1, 1)
	s.put(2, 2)
	if s.len() != 2 {
		t.Fatalf("len = %d, want 2", s.len())
	}
	if !s.invalidate(1) {
		t.Fatal("invalidate failed")
	}
	if s.len() != 1 {
		t.Fatalf("len = %d, want 1", s.len())
	}
}
