package nic

import (
	"fastsafe/internal/stats"
)

// RegisterProbes exposes the NIC's datapath counters and queue state
// through the registry under prefix (e.g. "nic0."). All probes are
// read-only views over live state.
func (n *NIC) RegisterProbes(r *stats.Registry, prefix string) {
	probe := func(name string, fn func(Stats) int64) {
		r.GaugeFunc(prefix+name, func() float64 { return float64(fn(n.stats)) })
	}
	probe("arrived", func(s Stats) int64 { return s.Arrived })
	probe("arrived_bytes", func(s Stats) int64 { return s.ArrivedBytes })
	probe("dropped", func(s Stats) int64 { return s.Dropped })
	probe("dropped_bytes", func(s Stats) int64 { return s.DroppedBytes })
	probe("marked", func(s Stats) int64 { return s.Marked })
	probe("rx_dmas", func(s Stats) int64 { return s.RxDMAs })
	probe("rx_bytes", func(s Stats) int64 { return s.RxBytes })
	probe("tx_dmas", func(s Stats) int64 { return s.TxDMAs })
	probe("tx_bytes", func(s Stats) int64 { return s.TxBytes })
	probe("ring_stalls", func(s Stats) int64 { return s.RingStalls })
	r.GaugeFunc(prefix+"buffer_bytes", func() float64 { return float64(n.bufferBytes) })
	r.GaugeFunc(prefix+"tx_queue", func() float64 { return float64(n.txQueue.Len()) })
}
