package core

import "fastsafe/internal/ptable"

// Tx datapath. Unlike Rx descriptors, Tx packets arrive one at a time from
// the stack and each packet needs its own page-sized mappings (§3). Under
// F&S, per-CPU descriptor-sized IOVA chunks are filled *across* packets in
// transmission order, so invalidations can still be ranged. MapTx and
// UnmapTx live with the other driver operations in policy.go.

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
