package sim

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
)

// Shards runs N engines under conservative parallel discrete-event
// simulation. Each shard owns one Engine and the simulation state pinned
// to it; shards only influence each other through timestamped messages
// posted via Post, as closures, or via a Mail, as values for a handler
// bound once (mail.go). Execution proceeds in synchronized rounds: the
// coordinator finds the globally earliest pending event at time T, lets
// every shard run its local events in the window [T, T+lookahead) in
// parallel, then delivers the cross-shard messages generated during the
// round at the barrier. The protocol is safe when every cross-shard
// message carries a delivery timestamp at least lookahead beyond the
// virtual time it was generated at — the caller's lookahead must be a
// lower bound on cross-shard causality (for the fabric: the per-hop
// propagation delay).
//
// A round whose shards did too little work in their previous round to
// hide a hand-off (fewer than minHandoff events on the busiest one) runs
// every ready shard on the calling goroutine, one after another. Any
// other round runs the first ready shard on the calling goroutine and
// hands every other ready shard to that shard's worker goroutine. Each
// engine touches only its own shard's state, so the usual
// engine-confinement rules keep the simulation race-free. The workers
// live for one Run call: Run starts them, and stops them and waits for
// them to exit before it returns, so no goroutine outlives Run and a
// worker's stack grows to the simulator's call depth once per Run, not
// once per round. Message delivery order at the barrier is sorted by
// (timestamp, generation time, source shard, post order), which is
// independent of goroutine scheduling — and the choice of goroutine
// reads only event counts, so it is deterministic too: sharded runs are
// bit-for-bit deterministic for a given seed regardless of GOMAXPROCS.
type Shards struct {
	engs      []*Engine
	lookahead Duration

	// outbox[src] collects the posts generated by shard src during the
	// current round, closures and the keys of Mail values alike. Only
	// shard src's goroutine appends to it, so no two goroutines share a
	// slice; the coordinator drains them between rounds.
	outbox [][]post
	// inbox is the coordinator's scratch buffer for barrier delivery.
	inbox []post

	// Worker hand-off, live only inside Run. Shard i's worker receives a
	// round's bound on bounds[i] and answers on done: a nil completion,
	// or the panic its events raised. bounds[0] stays nil, since shard 0
	// is never handed off: when ready it is the first ready shard, which
	// the calling goroutine runs. A send hands the engine to its worker
	// and the completion hands it back; nothing else is shared.
	bounds []chan Time
	done   chan *ShardPanic

	// fired[i] is how many events shard i fired in the last round it was
	// ready in, which runRound's hand-off gate reads; start[i] is its
	// Engine.Fired count when the current round began. Only the
	// coordinator touches either, outside the round. ready is runRound's
	// scratch list of ready shards.
	fired, start []uint64
	ready        []int

	rounds, handoffs uint64
}

// minHandoff is the fewest events the busiest ready shard must have fired
// in its previous round for a round to be handed to the workers. Below
// it, waking a worker and taking its completion back costs more than
// running the shards one after another on the calling goroutine. It sits
// between the two kinds of round measured after warm-up: in an 8-host
// RDMA-write incast on two shards the busiest shard fires a median of 6
// events a round (16 at the 99th percentile, 30 at most), and in 64-host
// pairs a median of 79 at four shards and 146 at two. A threshold of 16
// starts handing off the incast's busiest rounds; one of 128 serialises
// the four-shard pairs run.
const minHandoff = 32

// ShardPanic is the value Run panics with when an event panicked on one
// of the shards: the shard, the original panic value and the stack of
// the goroutine that ran it.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

// Error names the shard and the original value, then gives the stack.
func (p *ShardPanic) Error() string {
	return fmt.Sprintf("sim: shard %d panicked: %v\n\n%s", p.Shard, p.Value, p.Stack)
}

// post is one cross-shard message awaiting barrier delivery: a closure
// fn, or the value at index idx of mail's outbox for src.
type post struct {
	src, dst int
	gen, at  Time
	seq      int // arrival order within (src, round); breaks exact ties
	fn       func()
	mail     mailbox
	idx      int
}

// NewShards returns n engines coordinated with the given lookahead.
// Engine i is seeded with seed+i (shard simulations derive their own
// per-component RNG streams from configuration seeds; the engine RNGs
// exist only to satisfy the Engine contract). It starts no goroutine, so
// a Shards that is dropped holds nothing alive; each Run starts and stops
// its own workers. Panics unless n >= 1 and lookahead > 0 — a zero
// lookahead would make every round a single event and the protocol would
// degenerate to sequential execution.
func NewShards(n int, seed int64, lookahead Duration) *Shards {
	if n < 1 {
		panic("sim: NewShards needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewShards needs a positive lookahead")
	}
	engs := make([]*Engine, n)
	for i := range engs {
		engs[i] = NewEngine(seed + int64(i))
	}
	return newShards(engs, lookahead)
}

// OneShard returns a Shards of one shard that runs eng, for code that
// posts through a Shards (a Mail, a sharded switch) on an engine its
// caller owns. Every post is an Engine.At on eng, and Run runs eng
// straight to the deadline, so the lookahead is never read.
func OneShard(eng *Engine) *Shards { return newShards([]*Engine{eng}, 0) }

func newShards(engs []*Engine, lookahead Duration) *Shards {
	n := len(engs)
	return &Shards{
		engs:      engs,
		lookahead: lookahead,
		outbox:    make([][]post, n),
		fired:     make([]uint64, n),
		start:     make([]uint64, n),
	}
}

// Engine returns shard i's engine.
func (s *Shards) Engine(i int) *Engine { return s.engs[i] }

// Rounds returns the number of synchronization rounds executed so far —
// a telemetry hook for scaling analysis (wall-clock cost is roughly
// events + rounds x barrier overhead). A single shard runs no rounds.
func (s *Shards) Rounds() uint64 { return s.rounds }

// Handoffs returns the number of rounds that woke at least one worker;
// every other round ran on the calling goroutine alone.
func (s *Shards) Handoffs() uint64 { return s.handoffs }

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
//
// fn is a closure, which a caller that posts per packet allocates per
// packet; a Mail posts a value instead, with this contract and in the
// same order.
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
		if p.mail != nil {
			p.mail.schedule(p)
		} else {
			s.engs[p.dst].AtStamped(p.at, p.gen, p.fn)
		}
	}
	for i := range s.inbox {
		p := &s.inbox[i]
		if p.mail != nil {
			p.mail.drained(p.src)
		}
		p.fn, p.mail = nil, nil
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
// engine's clock to the deadline (mirroring Engine.Run so every shard's
// snapshots observe the same virtual instant). It may be
// called repeatedly with increasing deadlines — the cluster runner uses
// one call for warm-up and one for the measurement window, taking
// snapshots at the barrier in between.
//
// Run starts a worker goroutine for each shard but shard 0 and stops
// every one of them before it returns. If an event panics on any shard,
// the round still finishes on every other shard, whichever goroutine
// runs it; Run then stops the workers and panics on the calling
// goroutine with a *ShardPanic naming the shard (the lowest one, if
// several panicked in the round).
//
// One shard has no cross-shard message to synchronise (every Post is an
// Engine.At), so its engine runs straight to the deadline: no round, no
// worker, and a panic propagates unwrapped like Engine.Run's.
func (s *Shards) Run(deadline Time) {
	if len(s.engs) == 1 {
		s.engs[0].Run(deadline)
		return
	}
	s.startWorkers()
	defer s.stopWorkers()
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

// startWorkers starts one worker for each shard but shard 0.
func (s *Shards) startWorkers() {
	n := len(s.engs)
	s.bounds = make([]chan Time, n)
	// A round hands each worker at most one bound, and takes at most one
	// completion from each: with room for a round's sends, neither side
	// waits for the other to reach its receive.
	s.done = make(chan *ShardPanic, n-1)
	for i := 1; i < n; i++ {
		s.bounds[i] = make(chan Time, 1)
		go s.work(i, s.bounds[i], s.done)
	}
}

// stopWorkers closes every worker's bound channel and waits until each
// worker has exited. No round is in flight here: runRound takes every
// completion back before it returns or panics.
func (s *Shards) stopWorkers() {
	for _, c := range s.bounds[1:] {
		close(c)
	}
	for range s.bounds[1:] {
		<-s.done
	}
	s.bounds, s.done = nil, nil
}

// work is shard i's worker: it runs one round per bound received, and
// reports once more as it exits.
func (s *Shards) work(i int, bounds <-chan Time, done chan<- *ShardPanic) {
	for bound := range bounds {
		done <- s.runShard(i, bound)
	}
	done <- nil
}

// runShard drains shard i's events below bound. It recovers a panic, so
// the round can finish on every other shard before Run raises it.
func (s *Shards) runShard(i int, bound Time) (p *ShardPanic) {
	defer func() {
		if v := recover(); v != nil {
			p = &ShardPanic{Shard: i, Value: v, Stack: debug.Stack()}
		}
	}()
	s.engs[i].RunBefore(bound)
	return nil
}

// runRound drains every shard's events below bound. When the busiest
// ready shard fired fewer than minHandoff events in its previous round,
// the calling goroutine runs every ready shard in shard order and wakes
// no worker. Otherwise the first ready shard runs on the calling
// goroutine and every other ready shard on its worker, in parallel, so a
// round with one ready shard still wakes no worker.
func (s *Shards) runRound(bound Time) {
	var busiest uint64
	s.ready = s.ready[:0]
	for i, e := range s.engs {
		if t, ok := e.PeekTime(); ok && t < bound {
			s.ready = append(s.ready, i)
			busiest = max(busiest, s.fired[i])
			s.start[i] = e.Fired()
		}
	}
	var p *ShardPanic
	if busiest < minHandoff {
		for _, i := range s.ready {
			if q := s.runShard(i, bound); p == nil {
				p = q
			}
		}
	} else {
		rest := s.ready[1:]
		for _, i := range rest {
			s.bounds[i] <- bound
		}
		if len(rest) > 0 {
			s.handoffs++
		}
		p = s.runShard(s.ready[0], bound)
		for range rest {
			if q := <-s.done; q != nil && (p == nil || q.Shard < p.Shard) {
				p = q
			}
		}
	}
	for _, i := range s.ready {
		s.fired[i] = s.engs[i].Fired() - s.start[i]
	}
	if p != nil {
		panic(p)
	}
}
