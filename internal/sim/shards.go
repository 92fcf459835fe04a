package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Shards runs N engines under conservative parallel discrete-event
// simulation. Each shard owns one Engine and the simulation state pinned
// to it; shards only influence each other through timestamped messages
// posted via Post. Execution proceeds in synchronized rounds: the
// coordinator finds the globally earliest pending event at time T, lets
// every shard run its local events in the window [T, T+lookahead) in
// parallel, then delivers the cross-shard messages generated during the
// round at the barrier. The protocol is safe when every cross-shard
// message carries a delivery timestamp at least lookahead beyond the
// virtual time it was generated at — the caller's lookahead must be a
// lower bound on cross-shard causality (for the fabric: the per-hop
// propagation delay).
//
// Within a round each engine runs on its own goroutine and touches only
// its own shard's state, so the usual engine-confinement rules keep the
// simulation race-free. Message delivery order at the barrier is sorted
// by (timestamp, generation time, source shard, post order), which is
// independent of goroutine scheduling — sharded runs are bit-for-bit
// deterministic for a given seed regardless of GOMAXPROCS.
type Shards struct {
	engs      []*Engine
	lookahead Duration

	// outbox[src] collects the posts generated by shard src during the
	// current round. Only shard src's goroutine appends to it, so no two
	// goroutines share a slice; the coordinator drains them between rounds.
	outbox [][]post
	// inbox is the coordinator's scratch buffer for barrier delivery.
	inbox []post

	// Round state: every shard but the last one ready runs on a goroutine
	// started with its pre-bound run[i], which drains engs[i] below bound
	// and signals wg.
	bound Time
	wg    sync.WaitGroup
	run   []func()

	rounds uint64
}

// post is one cross-shard message awaiting barrier delivery.
type post struct {
	src, dst int
	gen, at  Time
	seq      int // arrival order within (src, round); breaks exact ties
	fn       func()
}

// NewShards returns n engines coordinated with the given lookahead.
// Engine i is seeded with seed+i (shard simulations derive their own
// per-component RNG streams from configuration seeds; the engine RNGs
// exist only to satisfy the Engine contract). Panics unless n >= 1 and
// lookahead > 0 — a zero lookahead would make every round a single event
// and the protocol would degenerate to sequential execution.
func NewShards(n int, seed int64, lookahead Duration) *Shards {
	if n < 1 {
		panic("sim: NewShards needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewShards needs a positive lookahead")
	}
	s := &Shards{
		engs:      make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][]post, n),
		run:       make([]func(), n),
	}
	for i := range s.engs {
		e := NewEngine(seed + int64(i))
		s.engs[i] = e
		s.run[i] = func() {
			e.RunBefore(s.bound)
			s.wg.Done()
		}
	}
	return s
}

// N returns the shard count.
func (s *Shards) N() int { return len(s.engs) }

// Engine returns shard i's engine.
func (s *Shards) Engine(i int) *Engine { return s.engs[i] }

// Lookahead returns the cross-shard causality bound the coordinator was
// built with.
func (s *Shards) Lookahead() Duration { return s.lookahead }

// Rounds returns the number of synchronization rounds executed so far —
// a telemetry hook for scaling analysis (wall-clock cost is roughly
// events + rounds x barrier overhead).
func (s *Shards) Rounds() uint64 { return s.rounds }

// Post schedules fn at virtual time at in shard dst. src names the shard
// whose event loop is calling (the only shard allowed to post during its
// round), and gen is the virtual time the posting event ran at. Same-shard
// posts schedule directly; cross-shard posts queue in src's outbox and are
// delivered at the next barrier in deterministic (at, gen, src, order)
// order.
//
// Conservative posts satisfy at >= gen + lookahead and always land ahead
// of every shard's window. Posts that violate the bound are still legal
// for commutative bookkeeping (counter credits whose timing is invisible
// to simulated behaviour): delivery clamps them to the destination's
// current time, i.e. they apply at the next barrier.
func (s *Shards) Post(src, dst int, gen, at Time, fn func()) {
	if src == dst {
		s.engs[dst].At(at, fn)
		return
	}
	s.outbox[src] = append(s.outbox[src], post{
		src: src, dst: dst, gen: gen, at: at, seq: len(s.outbox[src]), fn: fn,
	})
}

// flush delivers every queued cross-shard post. Sorting by (at, gen, src,
// seq) fixes the destination engines' scheduling order — and therefore
// their tie-breaking sequence numbers — independent of which goroutine
// finished its round first. Including the generation time in the key makes
// barrier delivery match the order a single shared engine would have
// scheduled the same sends in whenever their generation times differ.
func (s *Shards) flush() {
	s.inbox = s.inbox[:0]
	for src := range s.outbox {
		s.inbox = append(s.inbox, s.outbox[src]...)
		s.outbox[src] = s.outbox[src][:0]
	}
	if len(s.inbox) == 0 {
		return
	}
	slices.SortFunc(s.inbox, comparePosts)
	for i := range s.inbox {
		p := &s.inbox[i]
		s.engs[p.dst].AtStamped(p.at, p.gen, p.fn)
		p.fn = nil
	}
}

// comparePosts orders posts by the total key (at, gen, src, seq).
func comparePosts(a, b post) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.gen, b.gen); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Run executes all shards up to and including deadline, then aligns every
// engine's clock to the deadline (mirroring Engine.Run so per-shard
// samplers and snapshots observe the same virtual instant). It may be
// called repeatedly with increasing deadlines — the cluster runner uses
// one call for warm-up and one for the measurement window, taking
// snapshots at the barrier in between.
func (s *Shards) Run(deadline Time) {
	for {
		s.flush()
		next, any := Time(0), false
		for _, e := range s.engs {
			if t, ok := e.PeekTime(); ok && (!any || t < next) {
				next, any = t, true
			}
		}
		if !any || next > deadline {
			break
		}
		// Events in [next, bound) are safe to run in parallel: any
		// cross-shard message generated at gen >= next is timestamped
		// at >= gen + lookahead >= bound. The deadline clamp keeps
		// bound <= next+lookahead, so it only ever tightens the window.
		bound := next + s.lookahead
		if bound > deadline {
			bound = deadline + 1
		}
		s.rounds++
		s.runRound(bound)
	}
	for _, e := range s.engs {
		e.Run(deadline)
	}
}

// runRound drains every shard's events below bound, in parallel when more
// than one shard has work in the window. The last ready shard runs on the
// calling goroutine, so one ready shard starts no goroutine at all.
func (s *Shards) runRound(bound Time) {
	last := -1
	for i, e := range s.engs {
		if t, ok := e.PeekTime(); ok && t < bound {
			last = i
		}
	}
	if last < 0 {
		return
	}
	s.bound = bound
	for i, e := range s.engs[:last] {
		if t, ok := e.PeekTime(); ok && t < bound {
			s.wg.Add(1)
			go s.run[i]()
		}
	}
	s.engs[last].RunBefore(bound)
	s.wg.Wait()
}

// String renders coordinator telemetry for debugging.
func (s *Shards) String() string {
	return fmt.Sprintf("shards{n=%d lookahead=%s rounds=%d}", len(s.engs), s.lookahead, s.rounds)
}
