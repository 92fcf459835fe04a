package transport

import (
	"fastsafe/internal/stats"
)

// RegisterProbes exposes one sender's congestion state and counters
// through the registry under prefix (e.g. "flow0."). All probes are
// read-only views over live state.
func (s *Sender) RegisterProbes(r *stats.Registry, prefix string) {
	r.GaugeFunc(prefix+"cwnd", s.Cwnd)
	r.GaugeFunc(prefix+"alpha", s.Alpha)
	r.GaugeFunc(prefix+"inflight", func() float64 { return float64(s.Inflight()) })
	r.GaugeFunc(prefix+"sent", func() float64 { return float64(s.stats.Sent) })
	r.GaugeFunc(prefix+"retransmits", func() float64 { return float64(s.stats.Retransmits) })
	r.GaugeFunc(prefix+"timeouts", func() float64 { return float64(s.stats.Timeouts) })
}
