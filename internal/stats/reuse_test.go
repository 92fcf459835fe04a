package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReuseColdAccess(t *testing.T) {
	r := NewReuseDistance()
	if d := r.Access(1); d != -1 {
		t.Fatalf("first access distance = %d, want -1", d)
	}
	if d := r.Access(2); d != -1 {
		t.Fatalf("first access of new key = %d, want -1", d)
	}
	if r.live != 2 {
		t.Fatalf("distinct keys = %d, want 2", r.live)
	}
}

func TestReuseImmediateRepeat(t *testing.T) {
	r := NewReuseDistance()
	r.Access(1)
	if d := r.Access(1); d != 0 {
		t.Fatalf("immediate repeat distance = %d, want 0", d)
	}
}

func TestReuseKnownSequence(t *testing.T) {
	// Sequence a b c a: distance of the final a is 2 (b and c intervened).
	r := NewReuseDistance()
	r.Access('a')
	r.Access('b')
	r.Access('c')
	if d := r.Access('a'); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
	// Now b: since b's last access we saw c and a -> 2.
	if d := r.Access('b'); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
}

func TestReuseDuplicatesNotDoubleCounted(t *testing.T) {
	// a b b b a: unique keys between the two a's is 1.
	r := NewReuseDistance()
	r.Access('a')
	r.Access('b')
	r.Access('b')
	r.Access('b')
	if d := r.Access('a'); d != 1 {
		t.Fatalf("distance = %d, want 1 (b counted once)", d)
	}
}

func TestReuseCompactionPreservesDistances(t *testing.T) {
	// Hammer two keys to force many tombstones and compactions, then check
	// a long-dormant key still gets the right distance.
	r := NewReuseDistance()
	r.Access(100)
	for i := 0; i < 1000; i++ {
		r.Access(1)
		r.Access(2)
	}
	if d := r.Access(100); d != 2 {
		t.Fatalf("distance = %d, want 2 after compactions", d)
	}
}

// Reference implementation: brute-force scan of the access history.
func bruteForceDistances(keys []uint64) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		last := -1
		for j := i - 1; j >= 0; j-- {
			if keys[j] == k {
				last = j
				break
			}
		}
		if last < 0 {
			out[i] = -1
			continue
		}
		uniq := map[uint64]bool{}
		for j := last + 1; j < i; j++ {
			uniq[keys[j]] = true
		}
		out[i] = len(uniq)
	}
	return out
}

func TestPropertyReuseMatchesBruteForce(t *testing.T) {
	f := func(raw []uint8) bool {
		keys := make([]uint64, len(raw))
		for i, b := range raw {
			keys[i] = uint64(b % 16) // small key space forces reuse
		}
		want := bruteForceDistances(keys)
		r := NewReuseDistance()
		for i, k := range keys {
			if got := r.Access(k); got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReuseRandomLargeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(50))
	}
	want := bruteForceDistances(keys)
	r := NewReuseDistance()
	for i, k := range keys {
		if got := r.Access(k); got != want[i] {
			t.Fatalf("access %d key %d: got %d want %d", i, k, got, want[i])
		}
	}
}

func TestReuseTraceLimit(t *testing.T) {
	tr := NewReuseTrace(3)
	for i := 0; i < 10; i++ {
		tr.Access(uint64(i))
	}
	if len(tr.Dists) != 3 {
		t.Fatalf("trace length = %d, want 3", len(tr.Dists))
	}
}

func TestReuseTraceFractionAbove(t *testing.T) {
	tr := NewReuseTrace(0)
	// Pattern: keys 0..4 repeated twice gives 5 warm accesses at distance 4.
	for rep := 0; rep < 2; rep++ {
		for k := uint64(0); k < 5; k++ {
			tr.Access(k)
		}
	}
	if got := tr.FractionAbove(5); got != 0 {
		t.Fatalf("FractionAbove(5) = %v, want 0", got)
	}
	if got := tr.FractionAbove(4); got != 1 {
		t.Fatalf("FractionAbove(4) = %v, want 1", got)
	}
}

func TestReuseTraceFractionAboveNoWarm(t *testing.T) {
	tr := NewReuseTrace(0)
	tr.Access(1)
	tr.Access(2)
	if got := tr.FractionAbove(1); got != 0 {
		t.Fatalf("FractionAbove with only cold accesses = %v, want 0", got)
	}
}
