package sim

import "testing"

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%1000), func() {})
		if e.Pending() > 1024 {
			e.Run(e.Now() + 1000)
		}
	}
	e.RunAll()
}

func BenchmarkNestedEvents(b *testing.B) {
	e := NewEngine(1)
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			e.After(10, fire)
		}
	}
	e.After(10, fire)
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkEngineSchedule measures the steady-state cost of scheduling and
// firing one event. With the free-list pool the event structs are reused,
// so allocs/op drops from 1 (one heap-allocated event per At) to ~0.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%64), func() {})
		if e.Pending() >= 512 {
			e.Run(e.Now() + 64)
		}
	}
	e.RunAll()
}

// BenchmarkScheduleCancel measures cancel-heavy workloads: half of every
// scheduled batch is cancelled before it can fire, the pattern transport
// retransmit timers and shard inboxes produce. Cancelled events ride the
// queue as tombstones until popped, so this exercises the dead-event skip
// path and pool recycling together.
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	ids := make([]EventID, 0, 512)
	for i := 0; i < b.N; i++ {
		ids = append(ids, e.After(Duration(i%256), func() {}))
		if len(ids) == 512 {
			for j, id := range ids {
				if j%2 == 0 {
					e.Cancel(id)
				}
			}
			e.Run(e.Now() + 256)
			ids = ids[:0]
		}
	}
	e.RunAll()
}

// BenchmarkEventPoolChurn stresses the free list under shard-inbox-style
// churn: bursts of same-timestamp events (a barrier flush) of which a
// fraction are cancelled, drained window by window. A pooling regression
// shows up as allocs/op climbing toward 1.
func BenchmarkEventPoolChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const burst = 64
	ids := make([]EventID, burst)
	i := 0
	for i < b.N {
		at := e.Now() + 10
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			ids[j] = e.At(at, func() {})
		}
		for j := 0; j < n; j += 3 {
			e.Cancel(ids[j])
		}
		e.Run(at)
		i += n
	}
	e.RunAll()
}

// BenchmarkShardsPingPong measures the per-round overhead of the
// conservative coordinator: two shards that each post one tightly-timed
// message to the other per lookahead window, so both are ready in every
// round — the worst case for barrier cost. The caller cases time the
// path small rounds take: each shard fires one event per round, below
// minHandoff, so the calling goroutine runs both shards and wakes no
// worker. simbench's sim.round replay runs the same exchange. The handoff
// cases time the other path: each hop also fires minHandoff-1 local
// no-op events, so every round after the first hands shard 1 to its
// worker. The deep cases run every event beneath about 10 KB of stack
// frames, the depth a simulator event runs at, which a goroutine started
// per round would regrow its stack to every round.
func BenchmarkShardsPingPong(b *testing.B) {
	const deep = 10 << 10 / frameBytes
	for _, bc := range []struct {
		name         string
		frames, work int
	}{
		{"caller/shallow", 0, 0},
		{"caller/deep", deep, 0},
		{"handoff/shallow", 0, minHandoff - 1},
		{"handoff/deep", deep, minHandoff - 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			const la = 10
			s := NewShards(2, 1, la)
			var hop [2]func()
			noop := func() {}
			for me := range hop {
				me := me
				post := func() {
					eng := s.Engine(me)
					now := eng.Now()
					for k := 0; k < bc.work; k++ {
						eng.At(now, noop)
					}
					s.Post(me, 1-me, now, now+la, hop[1-me])
				}
				hop[me] = func() { atDepth(bc.frames, post) }
				s.Engine(me).At(0, hop[me])
			}
			b.ResetTimer()
			s.Run(Time(b.N)*la - 1) // b.N rounds: both shards fire and post
			if bc.work > 0 && b.N > 1 && s.Handoffs() == 0 {
				b.Fatal("no round was handed off")
			}
		})
	}
}

// frameBytes is the stack atDepth takes per call, its local array alone.
const frameBytes = 128

// atDepth calls f beneath frames calls of atDepth.
//
//go:noinline
func atDepth(frames int, f func()) byte {
	var frame [frameBytes]byte
	frame[frames%frameBytes] = byte(frames)
	if frames == 0 {
		f()
	} else {
		frame[0] += atDepth(frames-1, f)
	}
	return frame[frames%frameBytes]
}
