// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in nanoseconds and a priority queue
// of scheduled events. Events that share a timestamp fire in the order they
// were scheduled, which makes every simulation in this repository fully
// deterministic for a given seed.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a scheduled callback. Fired and cancelled events are recycled
// through the engine's free list; gen distinguishes the current tenancy of
// the struct from EventIDs issued for earlier tenancies.
//
// sched records the virtual time the event was scheduled at, and events
// sharing a timestamp fire in (sched, seq) order. For a single engine
// that refinement is vacuous — scheduling calls happen in nondecreasing
// virtual time, so seq order already is sched order — but it lets the
// shard coordinator insert cross-shard messages stamped with their true
// generation time at a barrier, reproducing the order a single shared
// engine would have fired the same-timestamp events in.
type event struct {
	at    Time
	sched Time
	seq   uint64
	fn    func()
	dead  bool
	gen   uint64
}

// EventID identifies a scheduled event so it can be cancelled. It pins the
// event's generation, so an ID kept past the event's firing (or past its
// cancellation) goes inert instead of cancelling whatever event later
// reuses the same pooled struct.
type EventID struct {
	ev  *event
	gen uint64
}

// eventQueue is a binary min-heap of events ordered by (at, sched, seq).
// seq is unique per engine, so the key is a total order and any correct
// heap pops the same sequence. (A 4-ary layout measured slower at 45 to
// 3,000 pending events.)
type eventQueue []*event

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.down(0, last)
	}
	return ev
}

// up places ev, which belongs at slot i or above, on its path to the root.
func (q eventQueue) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// down places ev, which belongs at slot i or below, on the path of
// smaller children.
func (q eventQueue) down(i int, ev *event) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	// Fired counts events executed; useful for run-away detection in tests.
	fired uint64
	// free pools fired/cancelled event structs for reuse by At.
	free []*event
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// alloc takes an event struct from the free list, or heap-allocates when
// the list is empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return new(event)
}

// recycle returns a popped event to the free list. Bumping gen first makes
// any EventID still pointing at the struct inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the caller; the engine clamps it to "now" to keep time monotonic.
func (e *Engine) At(t Time, fn func()) EventID {
	return e.AtStamped(t, e.now, fn)
}

// AtStamped schedules fn at absolute time t carrying an explicit schedule
// stamp: among events sharing a timestamp, earlier stamps fire first. At
// uses the current time as the stamp; the shard coordinator passes a
// cross-shard message's generation time instead, so barrier-delivered
// events sort against locally-scheduled ones exactly as they would have
// on one shared engine. Stamps are clamped into [0, t]; t is clamped to
// now like At.
func (e *Engine) AtStamped(t, stamp Time, fn func()) EventID {
	if t < e.now {
		t = e.now
	}
	if stamp > t {
		stamp = t
	}
	if stamp < 0 {
		stamp = 0
	}
	ev := e.alloc()
	ev.at, ev.sched, ev.seq, ev.fn = t, stamp, e.seq, fn
	e.seq++
	e.queue.push(ev)
	return EventID{ev, ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op: the generation check rejects IDs
// whose event struct has been recycled for a later scheduling.
func (e *Engine) Cancel(id EventID) {
	if id.ev != nil && id.ev.gen == id.gen {
		id.ev.dead = true
	}
}

// Step executes the next pending event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// PeekTime returns the timestamp of the earliest pending event and true,
// or (0, false) when the queue is empty. Cancelled events still occupy
// queue slots until popped, so the reported time may belong to an event
// that will never fire; callers using it as a lower bound (the shard
// coordinator) only ever get a conservative answer from that.
func (e *Engine) PeekTime() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// RunBefore executes pending events with timestamps strictly below bound.
// Unlike Run it does not advance the clock to the bound afterwards: the
// shard coordinator calls it once per synchronization window and only
// aligns clocks (via Run) when the whole simulation drains.
func (e *Engine) RunBefore(bound Time) {
	for len(e.queue) > 0 && e.queue[0].at < bound {
		e.Step()
	}
}

// Run executes events until the queue is empty or the clock passes deadline.
// Events scheduled exactly at the deadline still fire.
func (e *Engine) Run(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunAll executes events until none remain. Use only in tests with bounded
// event graphs.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}
