package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fastsafe/internal/race"
)

func TestPeekTimeAndRunBefore(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on an empty engine reported an event")
	}
	var fired []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if at, ok := e.PeekTime(); !ok || at != 10 {
		t.Fatalf("PeekTime = (%v, %v), want (10, true)", at, ok)
	}
	e.RunBefore(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("RunBefore(20) fired %v, want [10] only (bound is exclusive)", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("RunBefore advanced the clock to %v, want 10 (no alignment to bound)", e.Now())
	}
	e.RunBefore(31)
	if len(fired) != 3 {
		t.Fatalf("RunBefore(31) left %d events unfired", 3-len(fired))
	}
}

func TestPeekTimeSeesCancelledEvents(t *testing.T) {
	// A cancelled event still bounds PeekTime until popped — a conservative
	// (earlier-than-real) answer, which the shard coordinator tolerates as a
	// wasted round, never an unsafe one.
	e := NewEngine(1)
	id := e.At(5, func() { t.Fatal("cancelled event fired") })
	e.Cancel(id)
	if at, ok := e.PeekTime(); !ok || at != 5 {
		t.Fatalf("PeekTime = (%v, %v), want (5, true) for a cancelled head", at, ok)
	}
	e.RunBefore(6)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("RunBefore did not drain the cancelled event")
	}
}

func TestShardsValidation(t *testing.T) {
	for _, tc := range []struct {
		n  int
		la Duration
	}{{0, 1}, {1, 0}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShards(%d, la=%d) did not panic", tc.n, tc.la)
				}
			}()
			NewShards(tc.n, 1, tc.la)
		}()
	}
}

// TestShardsOneShardRunsTheEngine: one shard has nothing to synchronise,
// so Run drives its engine exactly as Engine.Run does. A workload with
// same-time ties, posted through the Shards on one side and scheduled
// with Engine.At on the other, fires the same trace and leaves the same
// clock at every deadline, with no round and no goroutine beyond the
// caller's.
func TestShardsOneShardRunsTheEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	trace := func(eng *Engine, post func(gen, at Time, fn func()), run func(Time), deadlines []Time) string {
		var b strings.Builder
		var step func(id, depth int)
		step = func(id, depth int) {
			fmt.Fprintf(&b, "%d#%d@%d ", id, depth, eng.Now())
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines inside Run, want at most %d", n, base)
			}
			if depth >= 6 {
				return
			}
			now := eng.Now()
			for k := 0; k < 2; k++ {
				next := 2*id + k
				post(now, now+Duration(3+(id+k)%2), func() { step(next, depth+1) })
			}
		}
		eng.At(0, func() { step(1, 0) })
		eng.At(0, func() { step(2, 0) })
		for _, d := range deadlines {
			run(d)
			fmt.Fprintf(&b, "| now=%d ", eng.Now())
		}
		return b.String()
	}
	for _, deadlines := range [][]Time{{60}, {13, 60}, shortWindows()} {
		eng := NewEngine(1)
		want := trace(eng, func(_, at Time, fn func()) { eng.At(at, fn) }, eng.Run, deadlines)
		s := NewShards(1, 1, 5)
		got := trace(s.Engine(0), func(gen, at Time, fn func()) { s.Post(0, 0, gen, at, fn) }, s.Run, deadlines)
		if got != want {
			t.Fatalf("windows %v: one-shard trace diverged from the engine's\n got %s\nwant %s", deadlines, got, want)
		}
		if s.Rounds() != 0 {
			t.Fatalf("windows %v: one shard ran %d rounds, want 0", deadlines, s.Rounds())
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, want at most %d", n, base)
	}
}

func TestShardsConservativeDelivery(t *testing.T) {
	// Two shards ping-pong a message with delivery timestamps exactly one
	// lookahead ahead — the tightest legal conservative schedule. The trace
	// must interleave in timestamp order despite parallel rounds.
	const la = 10
	s := NewShards(2, 1, la)
	var trace []string
	hops := 0
	var hop func(src int)
	hop = func(src int) {
		me := src
		eng := s.Engine(me)
		trace = append(trace, fmt.Sprintf("%d@%d", me, eng.Now()))
		hops++
		if hops >= 8 {
			return
		}
		now := eng.Now()
		s.Post(me, 1-me, now, now+la, func() { hop(1 - me) })
	}
	s.Engine(0).At(0, func() { hop(0) })
	s.Run(1000)
	want := "[0@0 1@10 0@20 1@30 0@40 1@50 0@60 1@70]"
	if got := fmt.Sprintf("%v", trace); got != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	if s.Rounds() == 0 {
		t.Fatal("coordinator reported zero rounds")
	}
	for i := 0; i < len(s.engs); i++ {
		if now := s.Engine(i).Now(); now != 1000 {
			t.Fatalf("shard %d clock = %v after Run(1000), want aligned to 1000", i, now)
		}
	}
}

func TestShardsSameShardPostIsDirect(t *testing.T) {
	s := NewShards(2, 1, 5)
	ran := false
	s.Post(0, 0, 0, 3, func() { ran = true })
	if pend := s.Engine(0).Pending(); pend != 1 {
		t.Fatalf("same-shard post did not schedule directly (pending=%d)", pend)
	}
	s.Run(10)
	if !ran {
		t.Fatal("same-shard post never ran")
	}
}

func TestShardsRelaxedPostClampsToNow(t *testing.T) {
	// A commutative bookkeeping post with a timestamp behind the receiver
	// must still apply (clamped to the receiver's clock), not fire in the
	// past or get lost.
	s := NewShards(2, 1, 5)
	var appliedAt Time = -1
	s.Engine(1).At(50, func() {}) // receiver is ahead of the post's timestamp
	s.Engine(0).At(60, func() {
		s.Post(0, 1, 60, 0, func() { appliedAt = s.Engine(1).Now() })
	})
	s.Run(100)
	if appliedAt < 0 {
		t.Fatal("relaxed post never applied")
	}
	if appliedAt < 50 {
		t.Fatalf("relaxed post applied at %v, before the receiver's clock", appliedAt)
	}
}

// shardTrace runs a deterministic 4-shard workload where every shard
// floods every other with conservatively timestamped messages, one Run
// call per deadline, and returns the merged event trace with the rounds
// run and the rounds handed to workers. Each message also fires work
// local events on its shard, each folding its time and index into the
// shard's running hash, which the next message's trace line prints. With
// work 0 the early rounds hold a few events and run on the calling
// goroutine, and the flood's last rounds are handed off; with work
// minHandoff every round after the first is handed off. After each call
// every shard's clock must sit at that call's deadline.
func shardTrace(t *testing.T, seed int64, work int, deadlines ...Time) (trace string, rounds, handoffs uint64) {
	t.Helper()
	const (
		n  = 4
		la = Duration(7)
	)
	s := NewShards(n, seed, la)
	traces := make([][]string, n)
	hash := make([]uint64, n)
	var step func(me, from, depth int)
	step = func(me, from, depth int) {
		eng := s.Engine(me)
		traces[me] = append(traces[me], fmt.Sprintf("%d<-%d@%d#%d:%x", me, from, eng.Now(), depth, hash[me]))
		now := eng.Now()
		for k := 0; k < work; k++ {
			k := uint64(k)
			eng.At(now+Duration(k%3), func() { hash[me] = hash[me]*31 + uint64(eng.Now())<<8 + k })
		}
		if depth >= 5 {
			return
		}
		for dst := 0; dst < n; dst++ {
			if dst == me {
				continue
			}
			dst := dst
			// Vary delivery offsets so timestamps collide across sources:
			// the deterministic (at, gen, src, seq) barrier order is what
			// keeps the trace stable.
			off := la + Duration((me+dst+depth)%3)
			s.Post(me, dst, now, now+off, func() { step(dst, me, depth+1) })
		}
	}
	for i := 0; i < n; i++ {
		i := i
		s.Engine(i).At(Time(i%2), func() { step(i, i, 0) })
	}
	for _, d := range deadlines {
		s.Run(d)
		for i := 0; i < n; i++ {
			if now := s.Engine(i).Now(); now != d {
				t.Fatalf("shard %d clock %v after Run(%v), want %v", i, now, d, d)
			}
		}
	}
	return fmt.Sprint(traces), s.Rounds(), s.Handoffs()
}

// shortWindows returns the deadlines of a run to 60 split into windows
// of 3ns, shorter than one lookahead.
func shortWindows() []Time {
	var ds []Time
	for d := Time(3); d < 60; d += 3 {
		ds = append(ds, d)
	}
	return append(ds, 60)
}

// checkPaths fails unless a shardTrace run took the paths its work asks
// for: with work 0, some rounds on the calling goroutine alone and some
// handed off; with work minHandoff, every round after the first handed
// off.
func checkPaths(t *testing.T, work int, rounds, handoffs uint64) {
	t.Helper()
	if work == 0 && (handoffs == 0 || handoffs == rounds) {
		t.Fatalf("work 0: %d of %d rounds handed off, want some but not all", handoffs, rounds)
	}
	if work >= minHandoff && handoffs+1 < rounds {
		t.Fatalf("work %d: %d of %d rounds handed off, want all but the first", work, handoffs, rounds)
	}
}

func TestShardsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, work := range []int{0, minHandoff} {
		want := ""
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 3; rep++ {
				got, rounds, handoffs := shardTrace(t, 42, work, 60)
				checkPaths(t, work, rounds, handoffs)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("work %d GOMAXPROCS=%d rep=%d: trace diverged\n got %s\nwant %s", work, procs, rep, got, want)
				}
			}
		}
	}
}

func TestShardsRepeatedRunWindows(t *testing.T) {
	// Run in windows (warm-up then measure, then many windows shorter
	// than the lookahead, each starting and stopping the workers) and
	// compare against one continuous run: the barrier at a window
	// boundary must not change the event schedule.
	for _, work := range []int{0, minHandoff} {
		one, _, _ := shardTrace(t, 7, work, 60)
		for _, windows := range [][]Time{{13, 60}, shortWindows()} {
			if got, _, _ := shardTrace(t, 7, work, windows...); got != one {
				t.Fatalf("work %d windows %v diverged from continuous run\n got %s\nwant %s", work, windows, got, one)
			}
		}
	}
}

// waitGoroutines waits until no more than want goroutines are left. A
// worker reports its exit just before it returns, so its goroutine may
// still be counted for a moment after Run returns; one that never exits
// fails the test.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", after, runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

func TestShardsWorkersExitWithRun(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, work := range []int{0, minHandoff} {
		shardTrace(t, 1, work, 60)
		waitGoroutines(t, base, fmt.Sprintf("work %d: after Run", work))
		shardTrace(t, 1, work, shortWindows()...)
		waitGoroutines(t, base, fmt.Sprintf("work %d: after many short Runs", work))
	}
}

func TestShardsPanicSurfacesOnCaller(t *testing.T) {
	// A panic on either shard lets the round finish on the other shard,
	// then surfaces from Run naming the lowest panicking shard, with no
	// worker left behind. With work 0 the panicking round is the first
	// and runs both shards on the calling goroutine. With work
	// minHandoff each shard first fires that many events in a round of
	// their own, so the panicking round runs shard 0 on the calling
	// goroutine and hands shard 1 to its worker.
	for _, path := range []struct {
		work     int
		handoffs uint64
	}{{0, 0}, {minHandoff, 1}} {
		work := path.work
		for _, tc := range []struct {
			panics []int
			want   int
		}{{[]int{0}, 0}, {[]int{1}, 1}, {[]int{0, 1}, 0}} {
			base := runtime.NumGoroutine()
			s := NewShards(2, 1, 10)
			var ran, late [2]bool
			for i := 0; i < 2; i++ {
				i := i
				for k := 0; k < work; k++ {
					s.Engine(i).At(0, func() {})
				}
				s.Engine(i).At(25, func() {
					for _, p := range tc.panics {
						if p == i {
							panic(fmt.Sprintf("boom on %d", i))
						}
					}
				})
				s.Engine(i).At(26, func() { ran[i] = true })
				s.Engine(i).At(70, func() { late[i] = true })
			}
			v := func() (v any) {
				defer func() { v = recover() }()
				s.Run(100)
				return nil
			}()
			name := fmt.Sprintf("work %d, panics on %v", work, tc.panics)
			p, ok := v.(*ShardPanic)
			if !ok {
				t.Fatalf("%s: Run raised %v, want a *ShardPanic", name, v)
			}
			if p.Shard != tc.want || p.Value != fmt.Sprintf("boom on %d", tc.want) {
				t.Fatalf("%s: got shard %d value %v, want shard %d", name, p.Shard, p.Value, tc.want)
			}
			if !strings.Contains(p.Error(), fmt.Sprintf("sim: shard %d panicked: boom on %d", tc.want, tc.want)) {
				t.Fatalf("%s: message %q does not name the shard and value", name, p.Error())
			}
			if s.Handoffs() != path.handoffs {
				t.Fatalf("%s: %d rounds handed off, want %d", name, s.Handoffs(), path.handoffs)
			}
			for i := 0; i < 2; i++ {
				if !slices.Contains(tc.panics, i) && !ran[i] {
					t.Fatalf("%s: the round did not finish on shard %d", name, i)
				}
				if late[i] {
					t.Fatalf("%s: shard %d ran a round after the panic", name, i)
				}
			}
			waitGoroutines(t, base, "after a panic: "+name)
		}
	}
}

// msg is postTrace's message: the shard it goes to, the shard that sent
// it and its depth in the flood.
type msg struct{ to, from, depth int }

// postTrace runs a random 4-shard flood and returns its trace with the
// rounds run and the rounds handed off, as shardTrace does. Each message
// posts one to three more to random shards, its own included, at random
// offsets of at most two ticks beyond the lookahead (none for its own
// shard), so same-shard and cross-shard posts interleave and share
// (at, gen) stamps. Each shard draws from its own engine's source in its
// own event order, so the schedule depends on the seed alone. Every
// message is posted as a closure through Shards.Post or, when valued, as
// a value through a Mail; work is shardTrace's knob.
func postTrace(t *testing.T, seed int64, work int, valued bool) (trace string, rounds, handoffs uint64) {
	t.Helper()
	const (
		n  = 4
		la = Duration(5)
	)
	s := NewShards(n, seed, la)
	traces := make([][]string, n)
	hash := make([]uint64, n)
	var step func(m msg)
	mail := NewMail(s, func(m msg) { step(m) })
	step = func(m msg) {
		me := m.to
		eng := s.Engine(me)
		now := eng.Now()
		traces[me] = append(traces[me], fmt.Sprintf("%d<-%d@%d#%d:%x", me, m.from, now, m.depth, hash[me]))
		for k := 0; k < work; k++ {
			k := uint64(k)
			eng.At(now+Duration(k%3), func() { hash[me] = hash[me]*31 + uint64(eng.Now())<<8 + k })
		}
		if m.depth >= 7 {
			return
		}
		rng := eng.Rand()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			next := msg{to: rng.Intn(n), from: me, depth: m.depth + 1}
			at := now + Duration(rng.Intn(3))
			if next.to != me {
				at += la
			}
			if valued {
				mail.Post(me, next.to, now, at, next)
			} else {
				s.Post(me, next.to, now, at, func() { step(next) })
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		s.Engine(i).At(Time(i%2), func() { step(msg{to: i, from: i}) })
	}
	s.Run(200)
	return fmt.Sprint(traces), s.Rounds(), s.Handoffs()
}

// TestShardsValuedPostsMatchClosures is the ordering oracle for valued
// posts: one random schedule sent as closures and sent as values fires
// the same trace, in the same rounds, at GOMAXPROCS 1, 2 and 8, with
// rounds run on the calling goroutine and rounds handed off (work 0)
// and with every round handed off (work minHandoff).
func TestShardsValuedPostsMatchClosures(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, work := range []int{0, minHandoff} {
		want, rounds, handoffs := postTrace(t, 3, work, false)
		checkPaths(t, work, rounds, handoffs)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, valued := range []bool{false, true} {
				got, r, h := postTrace(t, 3, work, valued)
				if got != want || r != rounds || h != handoffs {
					t.Fatalf("work %d GOMAXPROCS=%d valued=%v: %d rounds, %d handed off, want %d and %d; trace diverged: %v\n got %s\nwant %s",
						work, procs, valued, r, h, rounds, handoffs, got != want, got, want)
				}
			}
		}
	}
}

// TestShardsValuedPostAllocs: a warm valued post allocates nothing from
// the post through the barrier to its handler, from shard 0 to shard 1,
// back, and on one shard; and a cross-shard value lands only at the
// barrier.
func TestShardsValuedPostAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := NewShards(2, 1, 10)
	got := 0
	m := NewMail(s, func(v int) { got += v })
	for _, d := range []struct{ src, dst int }{{0, 1}, {1, 0}, {0, 0}} {
		dst := s.Engine(d.dst)
		post := func() {
			now := s.Engine(d.src).Now()
			m.Post(d.src, d.dst, now, now+10, 1)
			if pending := dst.Pending(); d.src != d.dst && pending != 0 {
				t.Fatalf("%d -> %d: the value was scheduled before the barrier (%d pending)", d.src, d.dst, pending)
			}
			s.flush()
			dst.RunAll()
		}
		before := got
		if n := testing.AllocsPerRun(100, post); n != 0 {
			t.Errorf("%d -> %d: a warm valued post allocates %v objects, want 0", d.src, d.dst, n)
		}
		if got-before != 101 {
			t.Fatalf("%d -> %d: %d values handled, want 101", d.src, d.dst, got-before)
		}
	}
}
