package sim

import (
	"math/rand"
	"sort"
	"testing"

	"fastsafe/internal/race"
)

// TestHeapMatchesSortOracle drives the engine with random At, AtStamped,
// Cancel and Step streams, times drawn from a narrow range so ties are
// common, and requires every Step to fire exactly the event a sort by
// (at, sched, seq) of the live events puts first.
func TestHeapMatchesSortOracle(t *testing.T) {
	type key struct {
		at, sched Time
		seq       int
	}
	less := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.sched != b.sched {
			return a.sched < b.sched
		}
		return a.seq < b.seq
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		e := NewEngine(1)
		var live []key
		ids := map[int]EventID{}
		fired := -1
		seq := 0
		schedule := func() {
			id := seq
			seq++
			t0 := e.Now() + Time(rng.Intn(6)) - 2 // sometimes in the past
			fn := func() { fired = id }
			k := key{at: t0, seq: id}
			if k.at < e.Now() {
				k.at = e.Now()
			}
			if rng.Intn(2) == 0 {
				ids[id] = e.At(t0, fn)
				k.sched = e.Now()
			} else {
				stamp := Time(rng.Intn(10)) - 2
				ids[id] = e.AtStamped(t0, stamp, fn)
				k.sched = stamp
				if k.sched > k.at {
					k.sched = k.at
				}
				if k.sched < 0 {
					k.sched = 0
				}
			}
			live = append(live, k)
		}
		step := func() {
			sort.Slice(live, func(i, j int) bool { return less(live[i], live[j]) })
			want := live[0]
			live = live[1:]
			fired = -1
			if !e.Step() || fired != want.seq {
				t.Fatalf("trial %d: fired event %d, the oracle's first is %d", trial, fired, want.seq)
			}
			if e.Now() != want.at {
				t.Fatalf("trial %d: clock %v after firing an event due at %v", trial, e.Now(), want.at)
			}
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				schedule()
			case r < 7 && len(live) > 0:
				i := rng.Intn(len(live))
				e.Cancel(ids[live[i].seq])
				live = append(live[:i], live[i+1:]...)
			case len(live) > 0:
				step()
			}
		}
		for len(live) > 0 {
			step()
		}
		if e.Step() {
			t.Fatalf("trial %d: an event fired after the oracle drained", trial)
		}
	}
}

// TestFIFOMatchesSliceOracle alternates push-heavy and pop-heavy phases
// so the ring grows several times and wraps around at every size.
func TestFIFOMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[*int]
	var oracle []*int
	for op := 0; op < 50000; op++ {
		pushBias := 30
		if (op/1000)%2 == 0 {
			pushBias = 70
		}
		if rng.Intn(100) < pushBias {
			v := new(int)
			*v = op
			q.Push(v)
			oracle = append(oracle, v)
		} else if len(oracle) > 0 {
			if *q.Front() != oracle[0] {
				t.Fatalf("op %d: Front %d, want %d", op, **q.Front(), *oracle[0])
			}
			if got := q.Pop(); got != oracle[0] {
				t.Fatalf("op %d: Pop %d, want %d", op, *got, *oracle[0])
			}
			oracle = oracle[1:]
		}
		if q.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d, want %d", op, q.Len(), len(oracle))
		}
	}
	// Slots outside the live window hold no references.
	for i := q.n; i < len(q.buf); i++ {
		if p := q.buf[(q.head+i)&(len(q.buf)-1)]; p != nil {
			t.Fatalf("vacated slot %d still holds %d", i, *p)
		}
	}
	for len(oracle) > 0 {
		if got := q.Pop(); got != oracle[0] {
			t.Fatalf("drain: Pop %d, want %d", *got, *oracle[0])
		}
		oracle = oracle[1:]
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *FIFO[int]){
		"Pop":   func(q *FIFO[int]) { q.Pop() },
		"Front": func(q *FIFO[int]) { q.Front() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty FIFO did not panic", name)
				}
			}()
			var q FIFO[int]
			q.Push(1)
			q.Pop()
			f(&q)
		}()
	}
}

// TestSteadyStateAllocs locks in the allocation-free event core: with a
// bound callback, scheduling and firing an event reuses pooled structs
// and heap capacity, and a FIFO at its working size reuses its ring.
func TestSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := NewEngine(1)
	n := 0
	tick := func() { n++ }
	for i := 0; i < 64; i++ {
		e.After(Duration(i), tick)
	}
	e.RunAll()
	if a := testing.AllocsPerRun(1000, func() {
		e.After(Duration(n%7), tick)
		e.After(3, tick)
		e.Step()
		e.Step()
	}); a != 0 {
		t.Errorf("engine schedule-and-fire: %v allocs, want 0", a)
	}

	var q FIFO[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	if a := testing.AllocsPerRun(1000, func() {
		q.Push(n)
		q.Pop()
	}); a != 0 {
		t.Errorf("FIFO push-pop: %v allocs, want 0", a)
	}
}
