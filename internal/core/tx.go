package core

import (
	"errors"

	"fastsafe/internal/ptable"
)

// Tx datapath. Unlike Rx descriptors, Tx packets arrive one at a time from
// the stack and each packet needs its own page-sized mappings (§3). Under
// F&S, per-CPU descriptor-sized IOVA chunks are filled *across* packets in
// transmission order, so invalidations can still be ranged. MapTx and
// UnmapTx live with the other driver operations in policy.go.
//
// The per-packet map and unmap the paper measures are charged as
// simulated CPU time; the records behind them are the simulator's own
// cost. The domain keeps the records and chunks UnmapTx releases and
// hands them out again, so a warm Tx datapath allocates nothing.

// errTxUnmapped is UnmapTx's error for a record that is not live.
var errTxUnmapped = errors.New("core: UnmapTx of a Tx mapping that is not live (already unmapped)")

// txPool is the per-CPU freelist of persistent pre-mapped Tx pages.
type txPool struct {
	free []ptable.IOVA
}

func (d *Domain) txPools(cpu int) *txPool {
	if d.txPool == nil {
		d.txPool = make([]*txPool, d.cfg.NumCPUs)
	}
	if d.txPool[cpu] == nil {
		d.txPool[cpu] = &txPool{}
	}
	return d.txPool[cpu]
}

// releaseTx kills a mapping UnmapTx completed: the record is emptied,
// keeping its slices' capacity, and joins the free list.
func (d *Domain) releaseTx(m *TxMapping) {
	m.IOVAs, m.chunks, m.pol = m.IOVAs[:0], m.chunks[:0], nil
	d.freeTx = append(d.freeTx, m)
}

// pop takes the last entry of a free list, or a new zero value when the
// list is empty.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	*free = (*free)[:n-1]
	return v
}
