package sim

// FIFO is a first-in first-out queue on a ring buffer. It grows by
// doubling when full and never shrinks, so a queue that has reached its
// working size pushes and pops without allocating. The zero value is an
// empty queue. Pop clears the slot it vacates, so a popped value holds
// no reference the queue keeps alive.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns a pointer to the head value, valid until the next Push
// or Pop. It panics on an empty queue.
func (q *FIFO[T]) Front() *T {
	if q.n == 0 {
		panic("sim: Front of an empty FIFO")
	}
	return &q.buf[q.head]
}

// Pop removes and returns the head value. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop from an empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
