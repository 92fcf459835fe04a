package host

// The host datapath builds no closure per packet. Long-lived objects (a
// Core, a flow, a NIC's wire pair, the serving app) bind their callbacks
// once. Per-request state — a Tx job, an unmap, a segment's stack work —
// lives in a record from a pool its owner keeps: the record binds its
// callbacks when first allocated and goes back to the pool in its last
// callback, after clearing its pointer fields. A pool's records are taken
// and released on its owner's engine only, so no pool is shared across
// the goroutines of a sharded cluster.

// pool is a free list of *T records.
type pool[T any] []*T

// get returns a free record, or a zero one when none is free.
func (p *pool[T]) get() *T {
	if n := len(*p); n > 0 {
		r := (*p)[n-1]
		(*p)[n-1] = nil
		*p = (*p)[:n-1]
		return r
	}
	return new(T)
}

// put returns r to the free list.
func (p *pool[T]) put(r *T) { *p = append(*p, r) }
