package sim

// Mail carries values of type T to one handler, bound once, through a
// Shards: a post that would otherwise capture its arguments in a fresh
// closure carries them as a value instead, and allocates nothing once
// warm.
//
// A post keeps everything a closure post has. A cross-shard post appends
// its value to the Mail's outbox for the source shard and its key
// (at, gen, src, seq) to the Shards' outbox, the one closure posts share,
// so the two kinds are numbered and sorted together. At the barrier,
// while no round runs, the coordinator copies the value into a record
// from the destination shard's free list and schedules the record's
// bound callback with AtStamped, at the point and with the arguments a
// closure post would have had. A same-shard post takes a record from its
// own shard's list and schedules it with At, as Shards.Post does. When a
// record fires it returns to the list of the shard it fired on, before
// the handler runs. Every record on shard i's list is therefore taken
// and released only by shard i's events or by the coordinator between
// rounds, and the hand-offs that order a round's work against the
// barrier order those accesses too.
type Mail[T any] struct {
	s      *Shards
	handle func(T)
	// out[src] holds the values shard src posted to other shards this
	// round; a post's idx indexes it. free[i] holds the records that are
	// free on shard i. Both grow on demand.
	out  [][]T
	free [][]*letter[T]
}

// letter is one value in flight on a shard's engine, with its callback
// bound once.
type letter[T any] struct {
	m     *Mail[T]
	shard int
	v     T
	fire  func()
}

// mailbox is a Mail as the coordinator sees it, whatever its value type.
type mailbox interface {
	// schedule schedules cross-shard post p's value on its destination.
	schedule(p *post)
	// drained empties src's outbox once the barrier has delivered it.
	drained(src int)
}

// NewMail returns a Mail on s whose posts run handle.
func NewMail[T any](s *Shards, handle func(T)) *Mail[T] {
	n := len(s.engs)
	return &Mail[T]{s: s, handle: handle, out: make([][]T, n), free: make([][]*letter[T], n)}
}

// Post schedules handle(v) at virtual time at in shard dst, with the
// contract of Shards.Post: src is the shard whose event loop is calling
// and gen the virtual time the posting event ran at. A same-shard post
// schedules at once; a cross-shard post is delivered at the next barrier
// in (at, gen, src, seq) order among every post of the round, closure
// posts included.
func (m *Mail[T]) Post(src, dst int, gen, at Time, v T) {
	s := m.s
	if src == dst {
		s.engs[dst].At(at, m.take(dst, v).fire)
		return
	}
	m.out[src] = append(m.out[src], v)
	s.outbox[src] = append(s.outbox[src], post{
		src: src, dst: dst, gen: gen, at: at, seq: len(s.outbox[src]),
		mail: m, idx: len(m.out[src]) - 1,
	})
}

// take returns a record on shard's list holding v, or a new one.
func (m *Mail[T]) take(shard int, v T) *letter[T] {
	var l *letter[T]
	if free := m.free[shard]; len(free) > 0 {
		l = free[len(free)-1]
		free[len(free)-1] = nil
		m.free[shard] = free[:len(free)-1]
	} else {
		l = &letter[T]{m: m, shard: shard}
		l.fire = l.run
	}
	l.v = v
	return l
}

func (m *Mail[T]) schedule(p *post) {
	m.s.engs[p.dst].AtStamped(p.at, p.gen, m.take(p.dst, m.out[p.src][p.idx]).fire)
}

func (m *Mail[T]) drained(src int) {
	clear(m.out[src])
	m.out[src] = m.out[src][:0]
}

// run is the record firing: it goes back on its shard's list, then the
// handler runs on its value.
func (l *letter[T]) run() {
	m, v := l.m, l.v
	var zero T
	l.v = zero
	m.free[l.shard] = append(m.free[l.shard], l)
	m.handle(v)
}
